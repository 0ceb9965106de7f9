#ifndef LLMMS_LLM_REGISTRY_H_
#define LLMMS_LLM_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"
#include "llmms/llm/model.h"

namespace llmms::llm {

// The Ollama-registry substitute: the catalog of models the platform can
// serve. New models are plug-and-play — registering a LanguageModel makes
// it available to the runtime and the orchestrators with no other change
// (§3.6 extensibility).
class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Adds a model under model->name(); AlreadyExists if taken.
  Status Register(std::shared_ptr<LanguageModel> model);

  Status Remove(const std::string& name);

  StatusOr<std::shared_ptr<LanguageModel>> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;

  // Sorted model names.
  std::vector<std::string> List() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<LanguageModel>> models_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_REGISTRY_H_
