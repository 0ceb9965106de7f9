#include "llmms/llm/registry.h"

#include <algorithm>

namespace llmms::llm {

Status ModelRegistry::Register(std::shared_ptr<LanguageModel> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = model->name();
  if (name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (models_.count(name) > 0) {
    return Status::AlreadyExists("model '" + name + "' already registered");
  }
  models_[name] = std::move(model);
  return Status::OK();
}

Status ModelRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.erase(name) == 0) {
    return Status::NotFound("model '" + name + "' is not registered");
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<LanguageModel>> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' is not registered");
  }
  return it->second;
}

bool ModelRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.count(name) > 0;
}

std::vector<std::string> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace llmms::llm
