#include "llmms/llm/state_store.h"

#include <utility>

#include "llmms/llm/hedged_model.h"

namespace llmms::llm {
namespace {

Json TransitionToJson(const CircuitBreaker::Transition& transition) {
  Json out = Json::MakeObject();
  out.Set("from", CircuitStateToString(transition.from));
  out.Set("to", CircuitStateToString(transition.to));
  out.Set("at_call", static_cast<size_t>(transition.at_call));
  return out;
}

CircuitBreaker::State StateFromString(const std::string& name) {
  if (name == "open") return CircuitBreaker::State::kOpen;
  if (name == "half-open") return CircuitBreaker::State::kHalfOpen;
  return CircuitBreaker::State::kClosed;
}

}  // namespace

Json StateStore::BreakerToJson(const CircuitBreaker::Snapshot& snapshot) {
  Json out = Json::MakeObject();
  out.Set("state", CircuitStateToString(snapshot.state));
  out.Set("consecutive_failures", snapshot.consecutive_failures);
  out.Set("total_failures", snapshot.total_failures);
  out.Set("fast_rejections", snapshot.fast_rejections);
  out.Set("rejections_since_open", snapshot.rejections_since_open);
  out.Set("probe_successes", snapshot.probe_successes);
  out.Set("call_clock", static_cast<size_t>(snapshot.call_clock));
  Json history = Json::MakeArray();
  for (const auto& transition : snapshot.history) {
    history.Append(TransitionToJson(transition));
  }
  out.Set("history", std::move(history));
  return out;
}

CircuitBreaker::Snapshot StateStore::BreakerFromJson(const Json& json) {
  CircuitBreaker::Snapshot out;
  out.state = StateFromString(json["state"].AsString());
  out.consecutive_failures =
      static_cast<size_t>(json["consecutive_failures"].AsInt());
  out.total_failures = static_cast<size_t>(json["total_failures"].AsInt());
  out.fast_rejections = static_cast<size_t>(json["fast_rejections"].AsInt());
  out.rejections_since_open =
      static_cast<size_t>(json["rejections_since_open"].AsInt());
  out.probe_successes = static_cast<size_t>(json["probe_successes"].AsInt());
  out.call_clock = static_cast<uint64_t>(json["call_clock"].AsInt());
  if (json["history"].is_array()) {
    for (const Json& entry : json["history"].AsArray()) {
      CircuitBreaker::Transition transition;
      transition.from = StateFromString(entry["from"].AsString());
      transition.to = StateFromString(entry["to"].AsString());
      transition.at_call = static_cast<uint64_t>(entry["at_call"].AsInt());
      out.history.push_back(transition);
    }
  }
  return out;
}

Json StateStore::SketchesToJson(
    const std::vector<QuantileWindow::Snapshot>& sketches) {
  Json out = Json::MakeArray();
  for (const auto& sketch : sketches) {
    Json entry = Json::MakeObject();
    entry.Set("capacity", sketch.capacity);
    entry.Set("count", sketch.count);
    Json samples = Json::MakeArray();
    for (double value : sketch.samples) samples.Append(value);
    entry.Set("samples", std::move(samples));
    out.Append(std::move(entry));
  }
  return out;
}

std::vector<QuantileWindow::Snapshot> StateStore::SketchesFromJson(
    const Json& json) {
  std::vector<QuantileWindow::Snapshot> out;
  if (!json.is_array()) return out;
  for (const Json& entry : json.AsArray()) {
    QuantileWindow::Snapshot sketch;
    sketch.capacity = static_cast<size_t>(entry["capacity"].AsInt());
    sketch.count = static_cast<size_t>(entry["count"].AsInt());
    if (entry["samples"].is_array()) {
      for (const Json& value : entry["samples"].AsArray()) {
        sketch.samples.push_back(value.AsDouble());
      }
    }
    out.push_back(std::move(sketch));
  }
  return out;
}

StateStore::StateStore(std::string path, FileSystem* fs)
    : path_(std::move(path)),
      fs_(fs != nullptr ? fs : FileSystem::Default()) {}

Status StateStore::Load() {
  load_warning_.clear();
  auto text_or = fs_->ReadFile(path_);
  if (!text_or.ok()) {
    // First run: nothing saved yet. Anything else (the path is a directory,
    // a permission problem) is a real I/O surprise and surfaces.
    if (text_or.status().IsNotFound()) return Status::OK();
    return text_or.status();
  }
  const std::string text = std::move(*text_or);
  if (text.empty()) return Status::OK();

  // Corruption policy: parse the whole file *before* committing anything.
  // Truncated or garbage state cold-starts the node — never a crash, never
  // a half-restore — and the reason is kept for the operator.
  auto cold_start = [this](const std::string& why) {
    load_warning_ = "state store '" + path_ + "' " + why +
                    "; cold-starting with empty state";
    GlobalStorageCounters().state_cold_starts.fetch_add(
        1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    breakers_.clear();
    sketches_.clear();
    sections_.clear();
    return Status::OK();
  };

  auto parsed = Json::Parse(text);
  if (!parsed.ok()) {
    return cold_start("is not valid JSON (" + parsed.status().message() + ")");
  }
  const Json& doc = parsed.value();
  if (!doc.is_object()) {
    return cold_start("must be a JSON object");
  }

  if (!doc.Contains("breakers") && !doc.Contains("sketches")) {
    return cold_start("has neither a 'breakers' nor a 'sketches' section");
  }

  // Every top-level key beyond the two built-ins is an attached section
  // (e.g. "rewards"); kept verbatim for LoadedSection() and carried through
  // future saves.
  std::map<std::string, CircuitBreaker::Snapshot> breakers;
  std::map<std::string, std::vector<QuantileWindow::Snapshot>> sketches;
  std::map<std::string, Json> sections;
  for (const auto& [name, value] : doc.AsObject()) {
    if (name == "breakers" || name == "sketches") continue;
    sections[name] = value;
  }
  if (doc.Contains("breakers")) {
    if (!doc["breakers"].is_object()) {
      return cold_start("has a non-object 'breakers' section");
    }
    for (const auto& [model, snapshot] : doc["breakers"].AsObject()) {
      breakers[model] = BreakerFromJson(snapshot);
    }
  }
  if (doc.Contains("sketches")) {
    if (!doc["sketches"].is_object()) {
      return cold_start("has a non-object 'sketches' section");
    }
    for (const auto& [model, sketch] : doc["sketches"].AsObject()) {
      sketches[model] = SketchesFromJson(sketch);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  breakers_ = std::move(breakers);
  sketches_ = std::move(sketches);
  sections_ = std::move(sections);
  return Status::OK();
}

void StateStore::AttachSection(const std::string& name,
                               std::function<Json()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_[name] = std::move(provider);
}

Json StateStore::LoadedSection(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sections_.find(name);
  return it == sections_.end() ? Json() : it->second;
}

void StateStore::AttachBreaker(const std::string& model,
                               CircuitBreaker* breaker) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = breakers_.find(model);
    if (it != breakers_.end()) breaker->Restore(it->second);
  }
  breaker->SetTransitionListener(
      [this, model](const CircuitBreaker::Snapshot& snapshot) {
        UpdateBreaker(model, snapshot);
      });
}

void StateStore::AttachSketches(const std::string& model,
                                std::shared_ptr<const HedgedModel> hedged) {
  std::vector<QuantileWindow::Snapshot> saved;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sketches_.find(model);
    if (it != sketches_.end()) saved = it->second;
    hedged_[model] = hedged;
  }
  // Restoring outside the store lock: RestoreSketches takes the model's own
  // lock, and a model method must never run under ours (same discipline as
  // the breaker transition listener).
  if (!saved.empty()) hedged->RestoreSketches(saved);
}

void StateStore::UpdateBreaker(const std::string& model,
                               const CircuitBreaker::Snapshot& snapshot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    breakers_[model] = snapshot;
  }
  // Persistence is best-effort on the transition path: a full disk must not
  // fail a generation. SaveNow() reports errors for explicit callers.
  (void)SaveNow();
}

Status StateStore::SaveNow() {
  // Snapshot the live groups outside the store lock (SketchSnapshot takes
  // each model's own lock; model methods never run under ours).
  std::map<std::string, std::shared_ptr<const HedgedModel>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live = hedged_;
  }
  std::map<std::string, std::vector<QuantileWindow::Snapshot>> fresh;
  for (const auto& [model, hedged] : live) {
    fresh[model] = hedged->SketchSnapshot();
  }
  // Section providers likewise run outside the store lock (they may take
  // their owner's own lock, e.g. the reward feed's).
  std::map<std::string, std::function<Json()>> providers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    providers = providers_;
  }
  std::map<std::string, Json> fresh_sections;
  for (const auto& [name, provider] : providers) {
    fresh_sections[name] = provider();
  }

  Json breakers = Json::MakeObject();
  Json sketches = Json::MakeObject();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Refresh the saved sketches from the live snapshots, so the file
    // always carries the newest windows (and a model detached later keeps
    // its last snapshot).
    for (auto& [model, sketch] : fresh) {
      sketches_[model] = std::move(sketch);
    }
    for (auto& [name, section] : fresh_sections) {
      sections_[name] = std::move(section);
    }
    for (const auto& [model, snapshot] : breakers_) {
      breakers.Set(model, BreakerToJson(snapshot));
    }
    for (const auto& [model, sketch] : sketches_) {
      sketches.Set(model, SketchesToJson(sketch));
    }
  }
  Json doc = Json::MakeObject();
  doc.Set("breakers", std::move(breakers));
  doc.Set("sketches", std::move(sketches));
  {
    // Loaded-but-unattached sections ride along unchanged.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, section] : sections_) {
      doc.Set(name, section);
    }
  }

  auto& counters = GlobalStorageCounters();
  // Full barrier sequence (write path.tmp, fsync, rename, fsync the parent
  // directory): a crash between the temp write and the rename — or at any
  // other point — leaves the previous snapshot readable.
  Status status = AtomicWriteFile(fs_, path_, doc.Dump(2) + "\n");
  if (!status.ok()) {
    counters.state_save_failures.fetch_add(1, std::memory_order_relaxed);
    if (status.IsNotFound()) return Status::IOError(status.message());
    return status;
  }
  counters.state_saves.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool StateStore::HasBreaker(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_.find(model) != breakers_.end();
}

bool StateStore::HasSketches(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sketches_.find(model) != sketches_.end();
}

}  // namespace llmms::llm
