#ifndef LLMMS_TESTS_GOLDEN_FILE_H_
#define LLMMS_TESTS_GOLDEN_FILE_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace llmms::testutil {

// Compares `fresh` with tests/golden/<name>, reporting the first diverging
// line. LLMMS_UPDATE_GOLDEN=1 rewrites the golden instead. The including
// test target defines LLMMS_TESTS_DIR (tests/CMakeLists.txt).
inline void ExpectMatchesGolden(const std::string& name,
                                const std::string& fresh) {
  const std::string path = std::string(LLMMS_TESTS_DIR) + "/golden/" + name;
  if (std::getenv("LLMMS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::trunc) << fresh;
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file; regenerate with "
                            "LLMMS_UPDATE_GOLDEN=1 "
                         << path;
  std::stringstream golden_text;
  golden_text << in.rdbuf();
  std::istringstream golden(golden_text.str());
  std::istringstream current(fresh);
  std::string golden_line;
  std::string fresh_line;
  for (size_t line = 1;; ++line) {
    const bool more_fresh =
        static_cast<bool>(std::getline(current, fresh_line));
    const bool more_golden =
        static_cast<bool>(std::getline(golden, golden_line));
    if (!more_fresh && !more_golden) break;
    ASSERT_TRUE(more_fresh == more_golden && fresh_line == golden_line)
        << name << " line " << line << " diverged\n"
        << "  golden: " << (more_golden ? golden_line : "<eof>") << "\n"
        << "  fresh:  " << (more_fresh ? fresh_line : "<eof>");
  }
}

}  // namespace llmms::testutil

#endif  // LLMMS_TESTS_GOLDEN_FILE_H_
