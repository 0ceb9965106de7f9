#ifndef LLMMS_LLM_STATE_STORE_H_
#define LLMMS_LLM_STATE_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "llmms/common/fs.h"
#include "llmms/common/json.h"
#include "llmms/common/quantile_window.h"
#include "llmms/common/status.h"
#include "llmms/llm/resilient_model.h"

namespace llmms::llm {

class HedgedModel;

// Durable node state (the generalisation of PR 1's BreakerStore): one JSON
// file holding, per model,
//   - the circuit-breaker snapshot, so a model quarantined by a tripped
//     breaker stays quarantined across restarts, and
//   - the per-replica latency-percentile sketches of a hedged group, so a
//     restarted node hedges with real percentiles from its first request
//     instead of re-running the min_samples cold-start ramp (DESIGN.md §11).
//
// File shape:
//   { "breakers": { "<model>": {<CircuitBreaker::Snapshot>} },
//     "sketches": { "<model>": [ {<QuantileWindow::Snapshot>}, ... ] },
//     "<section>": <any JSON> }
// A file with neither built-in section cold-starts. Beyond the two
// built-in sections, higher layers attach named sections with a provider
// callback (AttachSection) — core::AttachRewardFeed persists the reward
// feed's decayed means under "rewards" this way (DESIGN.md §16) without
// llm ever depending on core. Unrecognized sections found in the file are
// carried through saves untouched, so a node downgraded past a section's
// owner does not destroy that state.
//
// Usage:
//   StateStore store("/var/lib/llmms/state.json");
//   store.Load();                        // never fails the boot: a missing
//                                        // OR corrupt file cold-starts (the
//                                        // problem lands in load_warning())
//   store.AttachBreaker("m1", breaker);  // restore + save on transitions
//   store.AttachSketches("m1", hedged);  // restore + included in SaveNow()
//
// Writes are atomic with real durability barriers (temp file + fsync +
// rename + fsync of the parent directory, via common/fs.h AtomicWriteFile),
// so a crash at any point — even between the temp write and the rename —
// leaves the previous snapshot readable. Restores are all-or-nothing: the
// file is parsed completely before any state is committed, so a truncated
// file can never half-restore. All I/O goes through the FileSystem passed
// at construction (FileSystem::Default() when omitted), which is how the
// crash harness in tests/storage_chaos_test.cc drives it.
//
// AttachBreaker() installs a transition listener that rewrites the file on
// every breaker state change (which also persists the current sketches —
// there is no equivalent "transition" for a latency window, so sketches
// ride along with breaker saves and explicit SaveNow() calls; ApiService
// flushes once more at shutdown). The listener runs outside the breaker
// lock (see CircuitBreaker::SetTransitionListener), so saving cannot
// deadlock. The store must outlive every attached breaker (or the
// listeners must be cleared first); ApiService owns both, in that order.
class StateStore {
 public:
  // `fs` must outlive the store; FileSystem::Default() when null.
  explicit StateStore(std::string path, FileSystem* fs = nullptr);

  // Reads the file. A missing or empty file is a clean first run; a
  // malformed one degrades to the same empty store — a node must never
  // refuse to boot over a bad state file — with the parse problem kept in
  // load_warning(). Only I/O-level surprises (e.g. the path is a
  // directory) return an error.
  Status Load();

  // Why the last Load() cold-started despite the file existing; empty when
  // the load was clean.
  const std::string& load_warning() const { return load_warning_; }

  // Restores `model`'s saved breaker snapshot into `breaker` (no-op if the
  // store has none) and subscribes to its transitions so future changes are
  // persisted.
  void AttachBreaker(const std::string& model, CircuitBreaker* breaker);

  // Restores `model`'s saved sketches into `hedged` (no-op if the store has
  // none) and registers the group so SaveNow() persists its live windows.
  // The store keeps a reference: `hedged` stays alive at least as long as
  // the store.
  void AttachSketches(const std::string& model,
                      std::shared_ptr<const HedgedModel> hedged);

  // Registers a named top-level section whose JSON is produced fresh by
  // `provider` at every save. One provider per section; the last
  // registration wins. The provider runs outside the store lock (it may
  // take its owner's own lock) and must outlive the store's save activity.
  void AttachSection(const std::string& name,
                     std::function<Json()> provider);

  // The section's last loaded (or last provided) JSON; a null Json when the
  // store has none. How attached owners restore their state after Load().
  Json LoadedSection(const std::string& name) const;

  // Serializes breakers + the attached groups' current sketches + every
  // attached section to the file (atomically via a temp file + rename).
  Status SaveNow();

  const std::string& path() const { return path_; }

  // True if the store holds saved state for `model` (loaded or recorded).
  bool HasBreaker(const std::string& model) const;
  bool HasSketches(const std::string& model) const;

  // JSON (de)serialization, exposed for tests.
  static Json BreakerToJson(const CircuitBreaker::Snapshot& snapshot);
  static CircuitBreaker::Snapshot BreakerFromJson(const Json& json);
  static Json SketchesToJson(const std::vector<QuantileWindow::Snapshot>& s);
  static std::vector<QuantileWindow::Snapshot> SketchesFromJson(
      const Json& json);

 private:
  void UpdateBreaker(const std::string& model,
                     const CircuitBreaker::Snapshot& snapshot);

  const std::string path_;
  FileSystem* const fs_;
  std::string load_warning_;
  mutable std::mutex mu_;
  std::map<std::string, CircuitBreaker::Snapshot> breakers_;
  // Saved sketches (from Load, or the last snapshot of a detached model)…
  std::map<std::string, std::vector<QuantileWindow::Snapshot>> sketches_;
  // …and the live groups whose windows SaveNow() snapshots fresh.
  std::map<std::string, std::shared_ptr<const HedgedModel>> hedged_;
  // Extra top-level sections: the JSON last loaded from the file (or last
  // produced by a provider), and the providers that refresh them on save.
  std::map<std::string, Json> sections_;
  std::map<std::string, std::function<Json()>> providers_;
};

}  // namespace llmms::llm

#endif  // LLMMS_LLM_STATE_STORE_H_
