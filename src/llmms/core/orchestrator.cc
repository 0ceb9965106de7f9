#include "llmms/core/orchestrator.h"

namespace llmms::core {

const char* EventTypeToString(EventType type) {
  switch (type) {
    case EventType::kChunk:
      return "chunk";
    case EventType::kScore:
      return "score";
    case EventType::kPrune:
      return "prune";
    case EventType::kEarlyStop:
      return "early-stop";
    case EventType::kFailure:
      return "failure";
    case EventType::kHedge:
      return "hedge";
    case EventType::kHedgeAdapt:
      return "hedge-adapt";
    case EventType::kFinal:
      return "final";
  }
  return "unknown";
}

namespace internal {

void Emit(const OrchestratorEvent& event, const EventCallback& callback,
          std::vector<TraceEntry>* trace) {
  if (callback) callback(event);
  if (trace != nullptr && event.type != EventType::kChunk) {
    TraceEntry entry;
    entry.round = event.round;
    entry.model = event.model;
    entry.action = EventTypeToString(event.type);
    entry.detail = event.type == EventType::kFinal ? "" : event.text;
    entry.score = event.score;
    trace->push_back(std::move(entry));
  }
}

}  // namespace internal
}  // namespace llmms::core
