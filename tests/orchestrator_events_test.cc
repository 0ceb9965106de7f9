// Event-by-event golden of all four orchestrators (`ctest -L frontier`):
// single/oua/mab/hybrid x faults {none, storm} x {plain, adaptive} on the
// trio pool of the pinned scenario matrix (six queries per cell). Every
// OrchestratorEvent and every result's per-model outcome is written to
// tests/golden/orchestrator_events.golden, so a refactor of the round
// engine must reproduce each decision, not only the aggregate metrics.
//
// Regenerate with LLMMS_UPDATE_GOLDEN=1 after an intentional behaviour
// change.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "llmms/eval/scenario_matrix.h"

namespace llmms::eval {
namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// One golden line per field group; newlines in text are escaped so every
// event stays on one line.
std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string Score(double score) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", score);
  return buffer;
}

std::string SerializeQuery(
    size_t index, const std::vector<core::OrchestratorEvent>& events,
    const StatusOr<core::OrchestrationResult>& outcome) {
  std::string out = "query " + std::to_string(index) + "\n";
  for (const auto& event : events) {
    out += "  " + std::string(core::EventTypeToString(event.type)) +
           " round=" + std::to_string(event.round) + " model=" + event.model +
           " total_tokens=" + std::to_string(event.total_tokens) +
           " score=" + Score(event.score) + " text=" + Escape(event.text) +
           "\n";
  }
  if (!outcome.ok()) {
    return out + "  error " + Escape(outcome.status().ToString()) + "\n";
  }
  const core::OrchestrationResult& result = outcome.value();
  out += "  result best_model=" + result.best_model +
         " rounds=" + std::to_string(result.rounds) +
         " early_stopped=" + std::to_string(result.early_stopped) +
         " total_tokens=" + std::to_string(result.total_tokens) + "\n";
  for (const auto& [model, o] : result.per_model) {
    out += "    " + model + " tokens=" + std::to_string(o.tokens) +
           " pruned=" + std::to_string(o.pruned) +
           " failed=" + std::to_string(o.failed) +
           " final_score=" + Score(o.final_score) + "\n";
  }
  return out;
}

std::string RunAllCells() {
  MatrixConfig config = PinnedMatrix();
  config.orchestrators = {MatrixOrchestrator::kSingle, MatrixOrchestrator::kOua,
                          MatrixOrchestrator::kMab,
                          MatrixOrchestrator::kHybrid};
  ScenarioMatrix matrix(config);
  std::string serialized;
  for (const auto& spec : matrix.Cells()) {
    serialized += "cell " + CellKey(spec) + "\n";
    size_t index = 0;
    auto cell = matrix.RunCell(
        spec, [&](const std::vector<core::OrchestratorEvent>& events,
                  const StatusOr<core::OrchestrationResult>& outcome) {
          serialized += SerializeQuery(index++, events, outcome);
        });
    EXPECT_TRUE(cell.ok()) << cell.status().ToString();
  }
  return serialized;
}

TEST(OrchestratorEventsTest, EveryEventMatchesTheGolden) {
  const std::string serialized = RunAllCells();
  const std::string golden_path =
      std::string(LLMMS_TESTS_DIR) + "/golden/orchestrator_events.golden";
  if (std::getenv("LLMMS_UPDATE_GOLDEN") != nullptr) {
    WriteFile(golden_path, serialized);
    GTEST_SKIP() << "golden file regenerated at " << golden_path;
  }
  ASSERT_TRUE(FileExists(golden_path))
      << "missing golden file; regenerate with LLMMS_UPDATE_GOLDEN=1 "
      << golden_path;
  // Report the first diverging line rather than both multi-thousand-line
  // strings.
  std::istringstream fresh(serialized);
  std::istringstream golden(ReadFile(golden_path));
  std::string fresh_line;
  std::string golden_line;
  for (size_t line = 1;; ++line) {
    const bool more_fresh = static_cast<bool>(std::getline(fresh, fresh_line));
    const bool more_golden =
        static_cast<bool>(std::getline(golden, golden_line));
    if (!more_fresh && !more_golden) break;
    ASSERT_TRUE(more_fresh == more_golden && fresh_line == golden_line)
        << "line " << line << " diverged from the committed golden\n"
        << "  golden: " << (more_golden ? golden_line : "<eof>") << "\n"
        << "  fresh:  " << (more_fresh ? fresh_line : "<eof>") << "\n"
        << "if the change is intentional, regenerate with "
           "LLMMS_UPDATE_GOLDEN=1";
  }
}

}  // namespace
}  // namespace llmms::eval
