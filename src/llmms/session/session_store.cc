#include "llmms/session/session_store.h"

#include <algorithm>

namespace llmms::session {

StatusOr<std::shared_ptr<Session>> SessionStore::Create(
    const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(id) > 0) {
    return Status::AlreadyExists("session '" + id + "' already exists");
  }
  auto session = std::make_shared<Session>(id, defaults_);
  sessions_[id] = session;
  return session;
}

StatusOr<std::shared_ptr<Session>> SessionStore::GetOrCreate(
    const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must not be empty");
  }
  // Find and insert under one lock: two first requests for the same id
  // must share one session, not race into AlreadyExists.
  std::lock_guard<std::mutex> lock(mu_);
  auto& session = sessions_[id];
  if (session == nullptr) session = std::make_shared<Session>(id, defaults_);
  return session;
}

StatusOr<std::shared_ptr<Session>> SessionStore::Get(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session with id '" + id + "'");
  }
  return it->second;
}

Status SessionStore::Remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("no session with id '" + id + "'");
  }
  return Status::OK();
}

std::vector<std::string> SessionStore::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t SessionStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace llmms::session
