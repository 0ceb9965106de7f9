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

HnswIndex::Options ClampM(HnswIndex::Options options) {
  options.M = std::min(options.M, HnswIndex::kMaxM);
  return options;
}

}  // namespace

HnswIndex::HnswIndex(size_t dimension, DistanceMetric metric,
                     const Options& options)
    : metric_(metric),
      options_(ClampM(options)),
      level_lambda_(1.0 / std::log(static_cast<double>(
                              options_.M > 1 ? options_.M : 2))),
      rows_(dimension),
      level0_words_(kNodeHeaderWords + LinkList::kHeaderWords +
                    MaxNeighbors(0) + 1),
      level0_distances_(MaxNeighbors(0) + 1),
      rng_(options.seed) {}

std::vector<std::vector<SlotId>> HnswIndex::links(SlotId slot) const {
  std::vector<std::vector<SlotId>> out;
  for (int l = 0; l <= Level(slot); ++l) {
    const std::span<const SlotId> level = Links(slot, l);
    out.emplace_back(level.begin(), level.end());
  }
  return out;
}

int HnswIndex::Level(SlotId slot) const {
  const uint32_t upper = UpperIndex(slot);
  return upper == kNoUpper ? 0 : static_cast<int>(upper_[upper].levels);
}

std::span<const SlotId> HnswIndex::Links(SlotId slot, int level) const {
  if (level == 0) {
    return LinkList::LinksAt(level0_words_[slot] + kNodeHeaderWords);
  }
  return LinkList::LinksAt(upper_[UpperIndex(slot)].words.get() +
                           static_cast<size_t>(level - 1) * UpperWords());
}

HnswIndex::LinkList HnswIndex::List(SlotId slot, int level) {
  if (level == 0) {
    return LinkList(level0_words_[slot] + kNodeHeaderWords,
                    level0_distances_[slot]);
  }
  UpperLevels& upper = upper_[UpperIndex(slot)];
  const size_t record = static_cast<size_t>(level - 1);
  return LinkList(upper.words.get() + record * UpperWords(),
                  upper.distances.get() + record * UpperDistances());
}

double HnswIndex::Dist(std::span<const float> query, double query_norm,
                       SlotId b) const {
  return Distance(metric_, query, query_norm, rows_.row(b), rows_.norm(b));
}

double HnswIndex::Dist(SlotId a, SlotId b) const {
  return Distance(metric_, rows_.row(a), rows_.norm(a), rows_.row(b),
                  rows_.norm(b));
}

int HnswIndex::DrawLevel() {
  double u = rng_.NextDouble();
  while (u <= 1e-12) u = rng_.NextDouble();
  const int level = static_cast<int>(-std::log(u) * level_lambda_);
  return std::min(level, 32);
}

SlotId HnswIndex::GreedyDescend(std::span<const float> query,
                                double query_norm, SlotId entry, int top,
                                int bottom) const {
  SlotId current = entry;
  double best = Dist(query, query_norm, current);
  for (int l = top; l > bottom; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      if (l > Level(current)) break;
      for (SlotId nbr : Links(current, l)) {
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

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(
    std::span<const float> query, double query_norm, SlotId entry, size_t ef,
    int level) const {
  // Best-first search with a bounded result heap (the HNSW paper's
  // SEARCH-LAYER). `candidates` pops closest-first; `results` holds the ef
  // best found so far, with the worst on top.
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      candidates;
  std::priority_queue<Candidate> results;
  const uint32_t epoch = visited_marks.Begin(slot_count());
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
    if (level > 0 && level > Level(current.slot)) continue;
    for (SlotId nbr : Links(current.slot, level)) {
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

void HnswIndex::SelectNeighbors(std::vector<Candidate> candidates, size_t m,
                                LinkList out) const {
  // Heuristic from the HNSW paper: keep a candidate only if it is closer to
  // the query than to every already-selected neighbor. This preserves edge
  // diversity, which is what gives the graph its navigability.
  std::sort(candidates.begin(), candidates.end());
  out.Clear();
  std::vector<Candidate> discarded;
  for (const Candidate& c : candidates) {
    if (out.size() >= m) break;
    bool keep = true;
    for (size_t i = 0; i < out.size(); ++i) {
      if (Dist(c.slot, out.link(i)) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) {
      out.Push(c.slot, c.distance);
    } else {
      discarded.push_back(c);
    }
  }
  out.MarkKept();
  // Backfill with the closest discarded candidates if underfull.
  for (const Candidate& c : discarded) {
    if (out.size() >= m) break;
    out.Push(c.slot, c.distance);
  }
  out.MarkEvaluated();
}

void HnswIndex::PruneLinks(LinkList list, size_t cap) const {
  // SelectNeighbors decides each link from the links kept before it in
  // (distance, slot) order alone, and the links the last selection dropped
  // were discarded or came after every kept one, so the recorded split is
  // still each link's outcome as long as the kept set before it is the
  // same. Walk the merged order and compute a distance only where the kept
  // set has changed in a way that can flip the outcome.
  enum Was : uint8_t { kKept, kDiscarded, kAppended };
  struct Link {
    Candidate c;
    Was was;
    bool keep;
  };
  const size_t n = list.size();
  std::vector<Link> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Was was = i < list.kept()        ? kKept
                    : i < list.evaluated() ? kDiscarded
                                           : kAppended;
    order.push_back(Link{{list.distance(i), list.link(i)}, was, false});
  }
  std::sort(order.begin(), order.end(),
            [](const Link& a, const Link& b) { return a.c < b.c; });

  // Whether a link kept before order[end] is closer to `link` than the
  // owner is; with `added_only`, only links this prune newly kept count.
  auto dominated = [&](const Link& link, size_t end, bool added_only) {
    for (size_t j = 0; j < end; ++j) {
      const Link& s = order[j];
      if (!s.keep || (added_only && s.was == kKept)) continue;
      if (Dist(link.c.slot, s.c.slot) < link.c.distance) return true;
    }
    return false;
  };
  size_t kept = 0;
  size_t added = 0;        // kept now but not by the last selection
  bool lost_kept = false;  // a link the last selection kept is discarded
  size_t evaluated = 0;
  for (; evaluated < n && kept < cap; ++evaluated) {
    Link& link = order[evaluated];
    if (link.was == kKept) {
      // No kept link before it was closer; only a newly kept one can be.
      link.keep = added == 0 || !dominated(link, evaluated, true);
      lost_kept |= !link.keep;
    } else if (link.was == kDiscarded && !lost_kept) {
      // Every link kept before it still is, the one closer to it included.
      link.keep = false;
    } else {
      link.keep = !dominated(link, evaluated, false);
    }
    if (link.keep) {
      ++kept;
      if (link.was != kKept) ++added;
    }
  }

  list.Clear();
  for (size_t j = 0; j < evaluated; ++j) {
    if (order[j].keep) list.Push(order[j].c.slot, order[j].c.distance);
  }
  list.MarkKept();
  // Backfill with the closest discarded links, as SelectNeighbors does.
  for (size_t j = 0; j < evaluated && list.size() < cap; ++j) {
    if (!order[j].keep) list.Push(order[j].c.slot, order[j].c.distance);
  }
  list.MarkEvaluated();
}

StatusOr<SlotId> HnswIndex::Add(const Vector& vector) {
  LLMMS_ASSIGN_OR_RETURN(const SlotId slot, rows_.Add(vector));
  const int level = DrawLevel();
  uint32_t* node = level0_words_.Append();
  level0_distances_.Append();
  node[0] = kNoUpper;
  if (level > 0) {
    node[0] = static_cast<uint32_t>(upper_.size());
    const size_t levels = static_cast<size_t>(level);
    upper_.push_back(UpperLevels{
        static_cast<uint32_t>(level),
        std::make_unique<uint32_t[]>(levels * UpperWords()),
        std::make_unique<double[]>(levels * UpperDistances())});
  }

  if (slot == 0) {
    entry_point_ = slot;
    max_level_ = level;
    return slot;
  }

  // The stored row and norm, bit-equal to `vector` and its Norm.
  const std::span<const float> row = rows_.row(slot);
  const double norm = rows_.norm(slot);
  // Greedy descent through levels above the new node's level.
  SlotId current = GreedyDescend(row, norm, entry_point_, max_level_, level);

  // Connect on each level from min(level, max_level_) down to 0.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    auto candidates =
        SearchLayer(row, norm, current, options_.ef_construction, l);
    if (!candidates.empty()) current = candidates.front().slot;
    const LinkList own = List(slot, l);
    SelectNeighbors(std::move(candidates), options_.M, own);
    // Add reverse edges, shrinking neighbor lists that overflow. The
    // reverse edge stores the forward edge's distance: Distance() is
    // symmetric bit for bit.
    const size_t cap = MaxNeighbors(l);
    for (size_t i = 0; i < own.size(); ++i) {
      LinkList list = List(own.link(i), l);
      list.Push(slot, own.distance(i));
      if (list.size() > cap) PruneLinks(list, cap);
    }
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = slot;
  }
  return slot;
}

Status HnswIndex::Remove(SlotId slot) { return rows_.Remove(slot); }

StatusOr<std::vector<IndexHit>> HnswIndex::Search(const Vector& query,
                                                  size_t k) const {
  return SearchWithEf(query, k, options_.ef_search);
}

StatusOr<std::vector<IndexHit>> HnswIndex::SearchWithEf(const Vector& query,
                                                        size_t k,
                                                        size_t ef_search) const {
  if (query.size() != dimension()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  std::vector<IndexHit> hits;
  if (size() == 0 || k == 0) return hits;

  const double query_norm = Norm(query);
  const SlotId current =
      GreedyDescend(query, query_norm, entry_point_, max_level_, /*bottom=*/0);

  // Over-fetch when tombstones exist so k live results survive filtering.
  const size_t tombstones = slot_count() - size();
  const size_t ef = std::max(ef_search, k) + tombstones;
  const auto candidates =
      SearchLayer(query, query_norm, current, ef, /*level=*/0);
  hits.reserve(std::min(k, candidates.size()));
  for (const Candidate& c : candidates) {
    if (rows_.removed(c.slot)) continue;
    hits.push_back(IndexHit{c.slot, c.distance});
    if (hits.size() >= k) break;
  }
  return hits;
}

}  // namespace llmms::vectordb
