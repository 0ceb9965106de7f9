// Timing decorators for the traced pass of bench_serving. Each wraps one
// public seam of the library and records the (start, end) of every call into
// a per-thread span buffer; nothing inside the library is instrumented.
#ifndef LLMMS_PERFBENCH_TAPS_H_
#define LLMMS_PERFBENCH_TAPS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "llmms/embedding/embedder.h"
#include "llmms/llm/model.h"

namespace llmms::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The seams the traced pass times.
enum class Layer : uint8_t {
  kStart,            // llm::LanguageModel::StartGeneration
  kChunk,            // llm::GenerationStream::NextChunk
  kEmbedEngine,      // the embedder handed to SearchEngine
  kEmbedKnowledge,   // the embedder handed to KnowledgeBase
  kEmbedCompute,     // HashEmbedder behind the cache: misses only
};
inline constexpr size_t kNumLayers = 5;

struct Span {
  int64_t start_ns;
  int64_t end_ns;
  uint32_t size;  // input characters for embeddings, 0 otherwise
  Layer layer;
};

// Fixed-capacity span buffers, one per recording thread. The buffers are
// allocated up front without being touched, so an unused slot costs no
// resident memory and the hot path never allocates. A thread claims a slot
// on its first record; a full buffer counts drops instead of growing.
class SpanRecorder {
 public:
  static constexpr size_t kMaxThreads = 16;
  static constexpr size_t kSpansPerThread = size_t{1} << 21;

  SpanRecorder() : id_(next_id_.fetch_add(1) + 1) {
    for (auto& slot : slots_) {
      slot.spans = std::make_unique_for_overwrite<Span[]>(kSpansPerThread);
    }
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Record(Layer layer, int64_t start_ns, int64_t end_ns, size_t size) {
    Slot* slot = SlotForThisThread();
    if (slot == nullptr || slot->count == kSpansPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot->spans[slot->count++] =
        Span{start_ns, end_ns, static_cast<uint32_t>(size), layer};
  }

  // Every span recorded so far. Call only once every recording thread is
  // quiescent (after the server has stopped).
  std::vector<Span> Collect() const {
    std::vector<Span> out;
    const size_t used = std::min(claimed_.load(), kMaxThreads);
    for (size_t i = 0; i < used; ++i) {
      out.insert(out.end(), slots_[i].spans.get(),
                 slots_[i].spans.get() + slots_[i].count);
    }
    return out;
  }

  size_t dropped() const { return dropped_.load(); }

 private:
  struct Slot {
    std::unique_ptr<Span[]> spans;
    size_t count = 0;
  };

  Slot* SlotForThisThread() {
    // Keyed by recorder id, not address: a later recorder may reuse this
    // one's address, and a stale slot pointer must never be written.
    thread_local uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      const size_t index = claimed_.fetch_add(1);
      owner = id_;
      slot = index < kMaxThreads ? &slots_[index] : nullptr;
    }
    return slot;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t id_;
  Slot slots_[kMaxThreads];
  std::atomic<size_t> claimed_{0};
  std::atomic<size_t> dropped_{0};
};

class TimedEmbedder final : public embedding::Embedder {
 public:
  TimedEmbedder(std::shared_ptr<const embedding::Embedder> inner,
                SpanRecorder* recorder, Layer layer)
      : inner_(std::move(inner)), recorder_(recorder), layer_(layer) {}

  embedding::Vector Embed(std::string_view text) const override {
    const int64_t start = NowNs();
    embedding::Vector vector = inner_->Embed(text);
    recorder_->Record(layer_, start, NowNs(), text.size());
    return vector;
  }
  size_t dimension() const override { return inner_->dimension(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const embedding::Embedder> inner_;
  SpanRecorder* recorder_;
  Layer layer_;
};

class TimedStream final : public llm::GenerationStream {
 public:
  TimedStream(std::unique_ptr<llm::GenerationStream> inner,
              SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  StatusOr<llm::Chunk> NextChunk(size_t max_tokens) override {
    const int64_t start = NowNs();
    auto chunk = inner_->NextChunk(max_tokens);
    recorder_->Record(Layer::kChunk, start, NowNs(), 0);
    return chunk;
  }
  const std::string& text() const override { return inner_->text(); }
  size_t tokens_generated() const override {
    return inner_->tokens_generated();
  }
  bool finished() const override { return inner_->finished(); }
  llm::StopReason stop_reason() const override {
    return inner_->stop_reason();
  }

 private:
  std::unique_ptr<llm::GenerationStream> inner_;
  SpanRecorder* recorder_;
};

class TimedModel final : public llm::LanguageModel {
 public:
  TimedModel(std::shared_ptr<llm::LanguageModel> inner, SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  const std::string& name() const override { return inner_->name(); }
  uint64_t memory_mb() const override { return inner_->memory_mb(); }
  double tokens_per_second() const override {
    return inner_->tokens_per_second();
  }
  size_t context_window() const override { return inner_->context_window(); }

  StatusOr<std::unique_ptr<llm::GenerationStream>> StartGeneration(
      const llm::GenerationRequest& request) const override {
    const int64_t start = NowNs();
    auto stream = inner_->StartGeneration(request);
    recorder_->Record(Layer::kStart, start, NowNs(), 0);
    if (!stream.ok()) return stream.status();
    return std::unique_ptr<llm::GenerationStream>(
        std::make_unique<TimedStream>(std::move(stream).value(), recorder_));
  }

 private:
  std::shared_ptr<llm::LanguageModel> inner_;
  SpanRecorder* recorder_;
};

}  // namespace llmms::perfbench

#endif  // LLMMS_PERFBENCH_TAPS_H_
