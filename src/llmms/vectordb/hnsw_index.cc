#include "llmms/vectordb/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "llmms/vectordb/distance.h"

namespace llmms::vectordb {
namespace {

// SearchLayer's visited set: one mark per slot, equal to the current epoch
// once visited (hnswlib's VisitedList). Starting a search bumps the epoch,
// which unmarks every slot at once. Thread-local, so concurrent const
// searches under Collection's shared lock each have their own; the array is
// shared by every index a thread searches and grows to the largest.
struct VisitedMarks {
  std::vector<uint32_t> marks;
  uint32_t epoch = 0;

  // Starts a search over `slots` slots; returns the epoch that marks a
  // slot as visited.
  uint32_t Begin(size_t slots) {
    if (marks.size() < slots) marks.resize(slots, 0);
    if (++epoch == 0) {  // wrapped: stale marks could now match
      std::fill(marks.begin(), marks.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

thread_local VisitedMarks visited_marks;

}  // namespace

HnswIndex::HnswIndex(size_t dimension, DistanceMetric metric,
                     const Options& options)
    : dimension_(dimension),
      metric_(metric),
      options_(options),
      level_lambda_(1.0 / std::log(static_cast<double>(
                              options.M > 1 ? options.M : 2))),
      rng_(options.seed) {}

double HnswIndex::Dist(const Vector& query, double query_norm,
                       SlotId b) const {
  return Distance(metric_, query, query_norm, vectors_[b], norms_[b]);
}

double HnswIndex::Dist(SlotId a, SlotId b) const {
  return Distance(metric_, vectors_[a], norms_[a], vectors_[b], norms_[b]);
}

int HnswIndex::DrawLevel() {
  double u = rng_.NextDouble();
  while (u <= 1e-12) u = rng_.NextDouble();
  const int level = static_cast<int>(-std::log(u) * level_lambda_);
  return std::min(level, 32);
}

SlotId HnswIndex::GreedyDescend(const Vector& query, double query_norm,
                                SlotId entry, int top, int bottom) const {
  SlotId current = entry;
  double best = Dist(query, query_norm, current);
  for (int l = top; l > bottom; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      const auto& nbrs = nodes_[current].neighbors;
      if (l >= static_cast<int>(nbrs.size())) break;
      for (SlotId nbr : nbrs[static_cast<size_t>(l)]) {
        const double d = Dist(query, query_norm, nbr);
        if (d < best) {
          best = d;
          current = nbr;
          improved = true;
        }
      }
    }
  }
  return current;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(const Vector& query,
                                                         double query_norm,
                                                         SlotId entry,
                                                         size_t ef,
                                                         int level) const {
  // Best-first search with a bounded result heap (the HNSW paper's
  // SEARCH-LAYER). `candidates` pops closest-first; `results` holds the ef
  // best found so far, with the worst on top.
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      candidates;
  std::priority_queue<Candidate> results;
  const uint32_t epoch = visited_marks.Begin(nodes_.size());
  std::vector<uint32_t>& visited = visited_marks.marks;

  const Candidate start{Dist(query, query_norm, entry), entry};
  candidates.push(start);
  results.push(start);
  visited[entry] = epoch;

  while (!candidates.empty()) {
    const Candidate current = candidates.top();
    candidates.pop();
    if (!results.empty() && current.distance > results.top().distance &&
        results.size() >= ef) {
      break;
    }
    const auto& nbrs = nodes_[current.slot].neighbors;
    if (level >= static_cast<int>(nbrs.size())) continue;
    for (SlotId nbr : nbrs[static_cast<size_t>(level)]) {
      if (visited[nbr] == epoch) continue;
      visited[nbr] = epoch;
      const double d = Dist(query, query_norm, nbr);
      if (results.size() < ef || d < results.top().distance) {
        candidates.push(Candidate{d, nbr});
        results.push(Candidate{d, nbr});
        while (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<Candidate> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::reverse(out.begin(), out.end());  // closest first
  return out;
}

std::vector<HnswIndex::Candidate> HnswIndex::SelectNeighbors(
    std::vector<Candidate> candidates, size_t m) const {
  // Heuristic from the HNSW paper: keep a candidate only if it is closer to
  // the query than to every already-selected neighbor. This preserves edge
  // diversity, which is what gives the graph its navigability.
  std::sort(candidates.begin(), candidates.end());
  std::vector<Candidate> selected;
  selected.reserve(m);
  std::vector<Candidate> discarded;
  for (const Candidate& c : candidates) {
    if (selected.size() >= m) break;
    bool keep = true;
    for (const Candidate& s : selected) {
      if (Dist(c.slot, s.slot) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) {
      selected.push_back(c);
    } else {
      discarded.push_back(c);
    }
  }
  // Backfill with the closest discarded candidates if underfull.
  for (const Candidate& c : discarded) {
    if (selected.size() >= m) break;
    selected.push_back(c);
  }
  return selected;
}

void HnswIndex::SetLinks(SlotId slot, int level,
                         const std::vector<Candidate>& selected) {
  Node& node = nodes_[slot];
  auto& links = node.neighbors[static_cast<size_t>(level)];
  auto& distances = node.distances[static_cast<size_t>(level)];
  links.clear();
  distances.clear();
  for (const Candidate& c : selected) {
    links.push_back(c.slot);
    distances.push_back(c.distance);
  }
}

StatusOr<SlotId> HnswIndex::Add(const Vector& vector) {
  if (vector.size() != dimension_) {
    return Status::InvalidArgument(
        "vector dimension " + std::to_string(vector.size()) +
        " does not match index dimension " + std::to_string(dimension_));
  }
  const SlotId slot = static_cast<SlotId>(vectors_.size());
  const int level = DrawLevel();

  const double norm = Norm(vector);
  vectors_.push_back(vector);
  norms_.push_back(norm);
  Node node;
  node.level = level;
  node.neighbors.resize(static_cast<size_t>(level) + 1);
  node.distances.resize(static_cast<size_t>(level) + 1);
  // A list holds at most its cap plus the one reverse edge pushed before a
  // prune; sized at that, a full list never doubles its allocation.
  for (int l = 0; l <= level; ++l) {
    node.neighbors[static_cast<size_t>(l)].reserve(MaxNeighbors(l) + 1);
    node.distances[static_cast<size_t>(l)].reserve(MaxNeighbors(l) + 1);
  }
  nodes_.push_back(std::move(node));
  ++live_count_;

  if (slot == 0) {
    entry_point_ = slot;
    max_level_ = level;
    return slot;
  }

  // Greedy descent through levels above the new node's level.
  SlotId current = GreedyDescend(vector, norm, entry_point_, max_level_, level);

  // Connect on each level from min(level, max_level_) down to 0.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates =
        SearchLayer(vector, norm, current, options_.ef_construction, l);
    if (!candidates.empty()) current = candidates.front().slot;
    const auto neighbors = SelectNeighbors(std::move(candidates), options_.M);
    SetLinks(slot, l, neighbors);
    // Add reverse edges, shrinking neighbor lists that overflow. The
    // reverse edge stores the forward edge's distance: Distance() is
    // symmetric bit for bit, and `vector` and `norm` are the stored row's.
    for (const Candidate& nbr : neighbors) {
      auto& links = nodes_[nbr.slot].neighbors[static_cast<size_t>(l)];
      auto& distances = nodes_[nbr.slot].distances[static_cast<size_t>(l)];
      links.push_back(slot);
      distances.push_back(nbr.distance);
      const size_t cap = MaxNeighbors(l);
      if (links.size() > cap) {
        std::vector<Candidate> cands;
        cands.reserve(links.size());
        for (size_t i = 0; i < links.size(); ++i) {
          cands.push_back(Candidate{distances[i], links[i]});
        }
        SetLinks(nbr.slot, l, SelectNeighbors(std::move(cands), cap));
      }
    }
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = slot;
  }
  return slot;
}

Status HnswIndex::Remove(SlotId slot) {
  if (slot >= nodes_.size()) {
    return Status::NotFound("slot " + std::to_string(slot) + " out of range");
  }
  if (!nodes_[slot].removed) {
    nodes_[slot].removed = true;
    --live_count_;
  }
  return Status::OK();
}

StatusOr<std::vector<IndexHit>> HnswIndex::Search(const Vector& query,
                                                  size_t k) const {
  return SearchWithEf(query, k, options_.ef_search);
}

StatusOr<std::vector<IndexHit>> HnswIndex::SearchWithEf(const Vector& query,
                                                        size_t k,
                                                        size_t ef_search) const {
  if (query.size() != dimension_) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  std::vector<IndexHit> hits;
  if (vectors_.empty() || live_count_ == 0 || k == 0) return hits;

  const double query_norm = Norm(query);
  const SlotId current =
      GreedyDescend(query, query_norm, entry_point_, max_level_, /*bottom=*/0);

  // Over-fetch when tombstones exist so k live results survive filtering.
  const size_t tombstones = vectors_.size() - live_count_;
  const size_t ef = std::max(ef_search, k) + tombstones;
  const auto candidates =
      SearchLayer(query, query_norm, current, ef, /*level=*/0);
  hits.reserve(std::min(k, candidates.size()));
  for (const Candidate& c : candidates) {
    if (nodes_[c.slot].removed) continue;
    hits.push_back(IndexHit{c.slot, c.distance});
    if (hits.size() >= k) break;
  }
  return hits;
}

const Vector* HnswIndex::GetVector(SlotId slot) const {
  if (slot >= vectors_.size() || nodes_[slot].removed) return nullptr;
  return &vectors_[slot];
}

}  // namespace llmms::vectordb
