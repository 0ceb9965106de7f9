#include "llmms/vectordb/flat_index.h"

#include <algorithm>
#include <utility>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {

StatusOr<std::vector<IndexHit>> FlatIndex::Search(const Vector& query,
                                                  size_t k) const {
  if (query.size() != dimension()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  const double query_norm = Norm(query);
  TopHits top(std::min(k, size()));
  for (SlotId slot = 0; slot < rows_.slot_count(); ++slot) {
    if (rows_.removed(slot)) continue;
    top.Push(IndexHit{slot, Distance(metric_, query, query_norm,
                                     rows_.row(slot), rows_.norm(slot))});
  }
  return std::move(top).Take();
}

}  // namespace llmms::vectordb
