#ifndef LLMMS_CORE_SINGLE_H_
#define LLMMS_CORE_SINGLE_H_

#include <memory>
#include <string>

#include "llmms/core/orchestrator.h"
#include "llmms/core/scoring.h"
#include "llmms/llm/runtime.h"

namespace llmms::core {

// The static single-model baseline (§8.1 execution mode 1): every query goes
// to one fixed model, bounded by the same token budget the orchestrators
// get. Scores are still computed (query similarity only; there are no other
// models to agree with) so results are comparable.
struct SingleModelConfig : QueryConfig {
  size_t chunk_tokens = 32;  // streaming granularity for events
};

class SingleModelOrchestrator final
    : public PoolOrchestrator<SingleModelConfig> {
 public:
  SingleModelOrchestrator(llm::ModelRuntime* runtime, std::string model,
                          std::shared_ptr<const embedding::Embedder> embedder,
                          const Config& config)
      : PoolOrchestrator(runtime, {std::move(model)}, std::move(embedder),
                         config) {}
  using Orchestrator::Run;
  StatusOr<OrchestrationResult> Run(const std::string& prompt,
                                    const EventCallback& callback) override;
  std::string name() const override { return "single:" + models_.front(); }
};

}  // namespace llmms::core

#endif  // LLMMS_CORE_SINGLE_H_
