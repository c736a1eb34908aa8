#include "core/query.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>

#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace dtrace {

namespace {

// Bounded top-k accumulator with deterministic tie-breaking (higher score
// first, then lower entity id).
class TopKHeap {
 public:
  explicit TopKHeap(int k) : k_(k) {}

  void Offer(EntityId e, double score) {
    if (static_cast<int>(items_.size()) < k_) {
      items_.push_back({e, score});
      std::push_heap(items_.begin(), items_.end(), Worse);
      return;
    }
    if (Better({e, score}, items_.front())) {
      std::pop_heap(items_.begin(), items_.end(), Worse);
      items_.back() = {e, score};
      std::push_heap(items_.begin(), items_.end(), Worse);
    }
  }

  bool Full() const { return static_cast<int>(items_.size()) >= k_; }
  double MinScore() const { return items_.front().score; }

  std::vector<ScoredEntity> Sorted() && {
    std::sort(items_.begin(), items_.end(), Better);
    return std::move(items_);
  }

 private:
  // Strict "is x better than y" order.
  static bool Better(const ScoredEntity& x, const ScoredEntity& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.entity < y.entity;
  }
  // Min-heap on Better: the root is the worst kept item.
  static bool Worse(const ScoredEntity& x, const ScoredEntity& y) {
    return Better(x, y);
  }

  int k_;
  std::vector<ScoredEntity> items_;
};

// The query's unpruned cells per sp-index level, shared (immutably) between
// a materialized frontier entry and its children until they materialize
// their own copies. Stored as *bitmasks over ordinals* into the query's root
// cell lists: filtering only ever needs a cell's hashes (indexed by ordinal
// in the per-query hash table), counts fall out of popcounts, and a whole
// Remaining is a handful of words — so the frontier's per-node state comes
// from a reusable pool instead of the heap.
struct Remaining {
  Level base;  // first level with a stored mask (levels base..m)
  uint32_t refs = 0;  // frontier entries referencing this (single-threaded)
  std::vector<uint32_t> counts;  // all levels [1..m] (frozen above `base`)
  std::vector<uint64_t> words;   // masks for levels base..m, concatenated
};

// Per-query pool: Remaining objects are recycled through a free list, so
// steady-state materialization allocates nothing (vector capacities survive
// reuse). Everything is owned by storage_ and freed when the query returns,
// which also covers entries stranded in the frontier by early termination.
class RemainingPool {
 public:
  // Returns every object to the free list (capacities intact). Called at
  // query start, so a thread-local pool carries its high-water storage from
  // query to query and steady-state queries allocate no Remaining at all.
  // Safe because nothing outlives the query that acquired it.
  void Reset() {
    free_.clear();
    free_.reserve(storage_.size());
    for (auto& r : storage_) free_.push_back(r.get());
  }

  Remaining* Acquire() {
    if (free_.empty()) {
      storage_.push_back(std::make_unique<Remaining>());
      return storage_.back().get();
    }
    Remaining* r = free_.back();
    free_.pop_back();
    return r;
  }

  void AddRef(Remaining* r) { ++r->refs; }
  void Release(Remaining* r) {
    if (--r->refs == 0) free_.push_back(r);
  }

 private:
  std::vector<std::unique_ptr<Remaining>> storage_;
  std::vector<Remaining*> free_;
};

// Frontier entries are *lazily materialized*: a child is pushed carrying its
// parent's Remaining and the parent's (admissible) bound; only when popped
// does it filter the query cells through its own (routing, value) and
// tighten its bound — re-entering the queue if something else now ranks
// higher. This keeps bounds admissible at all times (a parent's bound
// dominates the child's true bound by Theorem 3) while skipping filtering
// work for subtrees the early-termination rule never reaches.
struct FrontierEntry {
  double ub;
  uint32_t node;
  uint32_t lane;   // which SearchLane's tree `node` indexes into
  uint64_t order;  // deterministic tie-break (FIFO among equal bounds)
  bool materialized;
  Remaining* remaining;  // pool-owned; own if materialized, else parent's
};

struct EntryLess {
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    if (a.ub != b.ub) return a.ub < b.ub;
    return a.order > b.order;
  }
};

// Max-heap frontier specialized for the search loop: 4-ary layout (half the
// levels of a binary heap, children on one cache line) over a reusable
// vector, so steady-state queries allocate nothing for frontier storage.
// EntryLess is a total order (the FIFO `order` field breaks every ub tie),
// so the pop sequence — hence every traversal-dependent counter — is
// identical to std::priority_queue's.
class FrontierHeap {
 public:
  void Clear() { v_.clear(); }
  bool empty() const { return v_.empty(); }
  const FrontierEntry& top() const { return v_.front(); }

  void push(const FrontierEntry& e) {
    size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!less_(v_[parent], v_[i])) break;
      std::swap(v_[parent], v_[i]);
      i = parent;
    }
  }

  void pop() {
    v_.front() = v_.back();
    v_.pop_back();
    size_t i = 0;
    const size_t n = v_.size();
    while (true) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(v_[best], v_[c])) best = c;
      }
      if (!less_(v_[i], v_[best])) break;
      std::swap(v_[i], v_[best]);
      i = best;
    }
  }

 private:
  EntryLess less_;
  std::vector<FrontierEntry> v_;
};

// Per-query evaluation arena: every buffer the candidate-scoring loop needs,
// allocated once per query and reused across leaf batches so the hot loop is
// allocation-free (capacity stays at the high-water mark).
struct EvalScratch {
  std::vector<uint32_t> c_sizes, inter;
  std::vector<double> scores;
  std::vector<EntityId> batch;  // prefetch stream: candidates minus q
};

// Per-query intersection kernel: the query side of every candidate
// intersection, captured once. Per level it keeps the query's windowed cells
// and — when the level's cell space is small enough — a bitmap over it, so
// scoring a candidate is a single pass over the candidate's span with one
// bit probe per cell instead of re-fetching the query record and merging.
// Both paths count the same set, so scores are bit-identical to the
// cursor-merge formulation.
class QueryKernel {
 public:
  // Bitmap cap per level (bits): 2^23 bits = 1 MB. Above this the sorted
  // merge (with its galloping skew path) wins on memory traffic.
  static constexpr uint64_t kMaxBitmapBits = uint64_t{1} << 23;

  void Build(TraceCursor& cursor, EntityId q, const SpatialHierarchy& h,
             TimeStep horizon, TimeStep w0, TimeStep w1) {
    const int m = h.num_levels();
    q_cells_.resize(m);
    bits_.resize(m);
    for (Level l = 1; l <= m; ++l) {
      const auto cells = cursor.CellsInWindow(q, l, w0, w1);
      q_cells_[l - 1].assign(cells.begin(), cells.end());
      const uint64_t space =
          static_cast<uint64_t>(horizon) * h.units_at(l);
      auto& bits = bits_[l - 1];
      if (cells.empty() || space > kMaxBitmapBits) {
        bits.clear();
        continue;
      }
      bits.assign((space + 63) / 64, 0);
      for (CellId c : cells) bits[c >> 6] |= uint64_t{1} << (c & 63);
    }
  }

  uint32_t Intersect(int level0, std::span<const CellId> candidate) const {
    const auto& bits = bits_[level0];
    if (bits.empty()) {
      return IntersectSortedSize(
          {q_cells_[level0].data(), q_cells_[level0].size()}, candidate);
    }
    uint32_t n = 0;
    const uint64_t* b = bits.data();
    for (CellId c : candidate) {
      n += static_cast<uint32_t>((b[c >> 6] >> (c & 63)) & 1u);
    }
    return n;
  }

 private:
  std::vector<std::vector<CellId>> q_cells_;
  std::vector<std::vector<uint64_t>> bits_;
};

// Hands the upcoming candidate order to a storage-backed cursor's prefetch
// pipeline (no-op for in-memory cursors or depth <= 0). The stream must
// match the exact fetch order of the scoring loop, which skips q.
void BeginPrefetch(TraceCursor& cursor, std::span<const EntityId> candidates,
                   EntityId q, int depth, std::vector<EntityId>& batch) {
  if (depth <= 0) return;
  batch.clear();
  for (EntityId e : candidates) {
    if (e != q) batch.push_back(e);
  }
  cursor.Prefetch(batch, depth);
}

// Exact evaluation of a batch of candidates (one leaf's members, or the
// whole population in BruteForce). Serial path streams through the query's
// cursor; with eval_threads > 1 scores are computed into position-indexed
// slots by workers holding their own cursors, then offered to the heap in
// serial candidate order — so the result is bit-identical to the serial
// path for every thread count. With options.prefetch_depth > 0 each cursor
// additionally pipelines its candidates' materialization ahead of scoring.
//
// The query side of every intersection comes from `kernel` (built once per
// query), so the inner loop touches the cursor exactly once per
// (candidate, level): one windowed span read, one kernel pass — no repeated
// query-record fetches, no per-candidate allocation.
// `status` latches the FIRST unrecoverable storage error any evaluation
// cursor hit (the parallel path merges per-worker cursor statuses under the
// same lock that merges their io); the caller stops scoring and surfaces it
// through TopKResult::status instead of trusting the scores.
// `as_of` is the commit version the parallel path's worker cursors are
// opened at; it must match the version `cursor` (the serial/shared cursor)
// was opened at, so both paths read identical candidate traces.
void EvalCandidates(const TraceSource& source, uint64_t as_of,
                    const AssociationMeasure& measure, EntityId q,
                    std::span<const uint32_t> q_sizes,
                    const QueryKernel& kernel, TimeStep w0, TimeStep w1,
                    std::span<const EntityId> candidates,
                    const QueryOptions& options, TraceCursor& cursor,
                    TopKHeap& heap, QueryStats& stats, EvalScratch& scratch,
                    Status& status) {
  // Below this, thread spawn/cursor-open overhead dominates the evaluation.
  constexpr size_t kMinParallelEval = 16;
  const int m = static_cast<int>(q_sizes.size());
  const int threads =
      options.eval_threads == 1 ? 1 : ResolveThreadCount(options.eval_threads);
  if (threads <= 1 || candidates.size() < kMinParallelEval) {
    scratch.c_sizes.resize(m);
    scratch.inter.resize(m);
    BeginPrefetch(cursor, candidates, q, options.prefetch_depth,
                  scratch.batch);
    for (EntityId e : candidates) {
      if (e == q) continue;
      for (Level l = 1; l <= m; ++l) {
        const auto span = cursor.CellsInWindow(e, l, w0, w1);
        scratch.c_sizes[l - 1] = static_cast<uint32_t>(span.size());
        scratch.inter[l - 1] = kernel.Intersect(l - 1, span);
      }
      heap.Offer(e, measure.Score(q_sizes, scratch.c_sizes, scratch.inter));
      ++stats.entities_checked;
    }
    status.Update(cursor.status());
    return;
  }
  scratch.scores.assign(candidates.size(), 0.0);
  std::vector<double>& scores = scratch.scores;
  std::mutex io_mu;
  ParallelFor(threads, candidates.size(), [&](size_t begin, size_t end) {
    auto local = source.OpenCursorAt(as_of);
    std::vector<uint32_t> c_sizes(m), inter(m);
    std::vector<EntityId> batch;
    BeginPrefetch(*local, candidates.subspan(begin, end - begin), q,
                  options.prefetch_depth, batch);
    for (size_t i = begin; i < end; ++i) {
      const EntityId e = candidates[i];
      if (e == q) continue;
      for (Level l = 1; l <= m; ++l) {
        const auto span = local->CellsInWindow(e, l, w0, w1);
        c_sizes[l - 1] = static_cast<uint32_t>(span.size());
        inter[l - 1] = kernel.Intersect(l - 1, span);
      }
      scores[i] = measure.Score(q_sizes, c_sizes, inter);
    }
    const std::lock_guard<std::mutex> lock(io_mu);
    stats.io.Add(local->io());
    status.Update(local->status());
  });
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == q) continue;
    heap.Offer(candidates[i], scores[i]);
    ++stats.entities_checked;
  }
}

}  // namespace

double QueryStats::pruning_effectiveness(size_t num_entities, int k) const {
  // Degenerate inputs: an empty population, or k covering the whole
  // population, means there is nothing to prune — PE is 0 by convention
  // (the naive formula would divide by zero or go negative).
  if (num_entities == 0 || k < 0 || static_cast<size_t>(k) >= num_entities) {
    return 0.0;
  }
  const double extra =
      static_cast<double>(entities_checked) - static_cast<double>(k);
  return std::clamp(extra / static_cast<double>(num_entities), 0.0, 1.0);
}

TopKQueryProcessor::TopKQueryProcessor(const TreeSource& tree,
                                       const TraceSource& source,
                                       const CellHasher& hasher,
                                       const AssociationMeasure& measure)
    : tree_(&tree), source_(&source), hasher_(&hasher), measure_(&measure) {}

TopKResult ForestTopKQuery(std::span<const SearchLane> lanes,
                           const TraceSource& query_source,
                           const CellHasher& hasher,
                           const AssociationMeasure& measure, EntityId q,
                           int k, const QueryOptions& options) {
  DT_CHECK(k >= 1);
  DT_CHECK(!lanes.empty());
  const int nh = hasher.num_functions();
  const int m = query_source.hierarchy().num_levels();
  for (const SearchLane& lane : lanes) {
    DT_CHECK(lane.tree != nullptr && lane.source != nullptr);
    DT_CHECK_MSG(lane.tree->num_functions() == nh,
                 "lane tree hash family differs from the query hasher");
    DT_CHECK_MSG(lane.tree->num_levels() == m,
                 "lane tree depth differs from the query hierarchy");
  }
  Timer timer;
  const auto cursor = query_source.OpenCursorAt(options.trace_as_of);
  // Per-lane node cursors: every structural read below goes through them,
  // so the identical search runs over heap nodes (MinSigTree, zero I/O) or
  // packed pages (PagedMinSigTree, charged to stats.io at the end).
  std::vector<std::unique_ptr<TreeNodeCursor>> node_cursors(lanes.size());
  for (size_t i = 0; i < lanes.size(); ++i) {
    node_cursors[i] = lanes[i].tree->OpenNodeCursor();
  }
  // Lanes whose source IS the query source — at the same version, when
  // versions matter — share the query cursor (so a 1-lane forest charges
  // exactly the single-tree search's I/O); other lanes open their own
  // cursor lazily, at the lane's as_of, on first leaf evaluation.
  std::vector<std::unique_ptr<TraceCursor>> lane_cursors(lanes.size());
  const auto lane_cursor = [&](uint32_t lane) -> TraceCursor& {
    if (lanes[lane].source == &query_source &&
        (!query_source.versioned() ||
         lanes[lane].as_of == options.trace_as_of)) {
      return *cursor;
    }
    if (lane_cursors[lane] == nullptr) {
      lane_cursors[lane] = lanes[lane].source->OpenCursorAt(lanes[lane].as_of);
    }
    return *lane_cursors[lane];
  };

  const TimeStep w0 = options.time_window ? options.time_window->begin : 0;
  const TimeStep w1 =
      options.time_window ? options.time_window->end : query_source.horizon();

  TopKResult result;
  QueryStats& stats = result.stats;

  // Per-query filtering kernel: every hash any node's filter can ask for is
  // bulk-computed once up front, transposed so one node's check is a single
  // column scan — hash_table[l-1][u * n_l + ord] = h_u of the query's ord-th
  // level-l cell — instead of one virtual, div-heavy Hash call per
  // (node, cell). Cost is |query cells| * nh, the same as one signature
  // computation; the old lazy scheme re-hashed each cell once per visited
  // node. Lanes share one hash family, so the table (and the kernel and
  // every Remaining mask below) serves all of them — a forest search pays
  // this once, not once per shard.
  std::vector<uint32_t> q_sizes(m);
  // Reused across queries on this thread (QueryMany workers each have their
  // own): the table is fully overwritten per query, so only its capacity
  // survives — the ~per-query-MB allocation and first-touch faults do not
  // repeat.
  static thread_local std::vector<std::vector<uint64_t>> hash_table;
  static thread_local std::vector<uint64_t> hash_row;
  hash_table.resize(m);
  hash_row.resize(nh);
  // Mask geometry: level l's mask is word_count[l-1] words; a Remaining with
  // base b stores levels b..m at offset word_prefix[l-1] - word_prefix[b-1].
  std::vector<size_t> word_count(m), word_prefix(m + 1, 0);
  static thread_local RemainingPool pool;
  pool.Reset();
  Remaining* root_remaining = pool.Acquire();
  root_remaining->base = 1;
  root_remaining->refs = 1;
  root_remaining->counts.assign(m, 0);
  for (Level l = 1; l <= m; ++l) {
    const auto cells = cursor->CellsInWindow(q, l, w0, w1);
    const size_t n = cells.size();
    q_sizes[l - 1] = static_cast<uint32_t>(n);
    root_remaining->counts[l - 1] = q_sizes[l - 1];
    word_count[l - 1] = (n + 63) / 64;
    word_prefix[l] = word_prefix[l - 1] + word_count[l - 1];
    auto& table = hash_table[l - 1];
    table.resize(n * static_cast<size_t>(nh));
    for (size_t i = 0; i < n; ++i) {
      hasher.HashAll(l, cells[i], hash_row.data());
      for (int u = 0; u < nh; ++u) {
        table[static_cast<size_t>(u) * n + i] = hash_row[u];
      }
    }
    stats.hash_evals += n * static_cast<size_t>(nh);
  }
  // Root masks: all query cells survive; tail bits beyond n stay zero (the
  // filter loops only propagate set input bits, preserving this).
  root_remaining->words.assign(word_prefix[m], 0);
  for (Level l = 1; l <= m; ++l) {
    uint64_t* w = root_remaining->words.data() + word_prefix[l - 1];
    const size_t n = q_sizes[l - 1];
    for (size_t i = 0; i < n / 64; ++i) w[i] = ~uint64_t{0};
    if (n % 64 != 0) w[n / 64] = (uint64_t{1} << (n % 64)) - 1;
  }

  // Thread-local like the hash table: Build overwrites all per-query state,
  // only buffer capacity survives (eval_threads workers share it read-only).
  static thread_local QueryKernel kernel;
  kernel.Build(*cursor, q, query_source.hierarchy(), query_source.horizon(),
               w0, w1);

  TopKHeap heap(k);
  EvalScratch scratch;

  // Thread-local like the hash table: cleared per query, capacity survives.
  static thread_local FrontierHeap frontier;
  frontier.Clear();
  uint64_t order = 0;
  // Every lane's root enters the one shared frontier at the root bound.
  // All roots share root_remaining (no filtering has happened yet).
  const double root_ub = measure.UpperBound(q_sizes, root_remaining->counts);
  root_remaining->refs = static_cast<uint32_t>(lanes.size());
  for (uint32_t lane = 0; lane < lanes.size(); ++lane) {
    frontier.push({root_ub, lanes[lane].tree->root(), lane, order++,
                   /*materialized=*/true, root_remaining});
    ++stats.heap_pushes;
  }

  // Filters `parent` through `node`'s (routing, value) — or its full group
  // signature when stored — producing the node's own Remaining (Theorem 2:
  // a node at level i prunes a level-l cell c, l >= i, iff some stored
  // signature position exceeds the cell's hash). Pure lookups into the
  // per-query hash table; no hashing happens here. The node's *own* level
  // is only ever read back as a count — children filter from their own
  // (deeper) level down, and the bound uses counts — so that level is
  // counted without a stored mask; in particular leaves (level m) store no
  // masks at all.
  auto materialize = [&](const TreeNodeView& node, const Remaining& parent) {
    Remaining* own = pool.Acquire();
    own->base = node.level + 1;
    own->refs = 1;
    own->counts = parent.counts;
    own->words.assign(word_prefix[m] - word_prefix[own->base - 1], 0);
    const bool full_mode = !node.full_sig.empty();
    const uint64_t value = node.value;
    for (Level l = node.level; l <= m; ++l) {
      const uint64_t* src = parent.words.data() + word_prefix[l - 1] -
                            word_prefix[parent.base - 1];
      const size_t n_l = q_sizes[l - 1];
      const uint64_t* table = hash_table[l - 1].data();
      // In the default routing mode one contiguous column decides
      // survival, so the branch and column base hoist out of the word
      // loops below.
      const uint64_t* col =
          table + static_cast<size_t>(node.routing) * n_l;
      auto survives = [&](size_t ord) {
        if (!full_mode) return col[ord] >= value;
        for (int u = 0; u < nh; ++u) {
          if (table[static_cast<size_t>(u) * n_l + ord] < node.full_sig[u]) {
            return false;
          }
        }
        return true;
      };
      // A fully-set word (the common case near the top of the tree, where
      // little has been pruned yet) takes a branchless contiguous scan of
      // the column instead of the per-set-bit walk — same 64 loads, no
      // loop-carried bit dependency, vectorizable.
      const auto filter_word_dense = [&](size_t w) {
        const uint64_t* base = col + w * 64;
        uint64_t out = 0;
        for (int i = 0; i < 64; ++i) {
          out |= static_cast<uint64_t>(base[i] >= value) << i;
        }
        return out;
      };
      uint32_t count = 0;
      if (l == node.level) {
        for (size_t w = 0; w < word_count[l - 1]; ++w) {
          uint64_t bits = src[w];
          if (!full_mode && bits == ~uint64_t{0}) {
            count += static_cast<uint32_t>(std::popcount(filter_word_dense(w)));
            continue;
          }
          while (bits != 0) {
            const size_t ord = w * 64 + static_cast<size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            count += survives(ord) ? 1 : 0;
          }
        }
      } else {
        uint64_t* dst = own->words.data() + word_prefix[l - 1] -
                        word_prefix[own->base - 1];
        for (size_t w = 0; w < word_count[l - 1]; ++w) {
          uint64_t bits = src[w];
          uint64_t out = 0;
          if (!full_mode && bits == ~uint64_t{0}) {
            out = filter_word_dense(w);
          } else {
            while (bits != 0) {
              const int i = std::countr_zero(bits);
              bits &= bits - 1;
              if (survives(w * 64 + static_cast<size_t>(i))) {
                out |= uint64_t{1} << i;
              }
            }
          }
          dst[w] = out;
          count += static_cast<uint32_t>(std::popcount(out));
        }
      }
      own->counts[l - 1] = count;
    }
    return own;
  };

  const double slack = 1.0 + options.approximation_epsilon;
  // A bound is dominated once the heap is full and its (certified) k-th
  // score, scaled by the approximation slack, strictly exceeds it.
  const auto dominated = [&](double ub) {
    if (!heap.Full()) return false;
    const double kth = heap.MinScore();
    return kth >= 0.0 && kth * slack > ub;
  };
  // Zone-map bound (paged lanes only): an admissible bound on an
  // unmaterialized entry computed from resident data alone. The zone gives
  // the node's exact (level, routing) plus a value FLOOR <= its true
  // value, so running materialize's filter count-only at the floor keeps a
  // superset of the cells the node's own filter keeps: every count
  // dominates the node's true tightened count pointwise (levels below the
  // node's keep the parent's counts, exactly as materialize does), and
  // UpperBound is monotone in the counts. An entry rejected because the
  // certified k-th *strictly* dominates this bound therefore also has its
  // true tightened bound strictly dominated: in the oracle traversal it
  // would either strand in the frontier or trigger termination without
  // ever being visited — either way it contributes no candidate and no
  // visit, so dropping it leaves the canonical result set, entities
  // checked, and nodes visited identical; only its page fault (and the
  // strand's heap re-push) disappear.
  std::vector<uint32_t> zone_counts(m);
  const auto zone_bound = [&](const TreeNodeZone& zone,
                              const Remaining& parent) {
    const Level first = std::max<Level>(zone.level, 1);
    for (Level l = 1; l < first; ++l) zone_counts[l - 1] = parent.counts[l - 1];
    const uint64_t floor = zone.value_floor;
    for (Level l = first; l <= m; ++l) {
      const uint64_t* src = parent.words.data() + word_prefix[l - 1] -
                            word_prefix[parent.base - 1];
      const size_t n_l = q_sizes[l - 1];
      const uint64_t* col =
          hash_table[l - 1].data() + static_cast<size_t>(zone.routing) * n_l;
      uint32_t count = 0;
      for (size_t w = 0; w < word_count[l - 1]; ++w) {
        uint64_t bits = src[w];
        if (bits == ~uint64_t{0}) {
          const uint64_t* base = col + w * 64;
          for (int i = 0; i < 64; ++i) {
            count += static_cast<uint32_t>(base[i] >= floor);
          }
          continue;
        }
        while (bits != 0) {
          const size_t ord =
              w * 64 + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          count += col[ord] >= floor ? 1 : 0;
        }
      }
      zone_counts[l - 1] = count;
    }
    return measure.UpperBound(q_sizes, zone_counts);
  };
  // Error policy (DESIGN-storage.md "Fault model and integrity"): the first
  // unrecoverable storage error any cursor latches stops the search at the
  // next evaluation boundary, and the result carries the error with EMPTY
  // items — never a silently partial ranking. The kernel/hash-table build
  // above read the query's own record, so an error latched there means the
  // search never starts.
  Status search_status = cursor->status();
  bool terminated = false;
  while (!terminated && search_status.ok() && !frontier.empty()) {
    FrontierEntry entry = frontier.top();
    frontier.pop();
    // Early termination (Sec. 5.1): the certified k-th score *strictly*
    // dominates every remaining upper bound (scaled by the approximation
    // slack). Strictness is what makes the returned tie set canonical: a
    // node whose bound equals the k-th score may still hold candidates
    // that tie it, and those must be evaluated so the heap's total order
    // (score desc, entity id asc) — the same order the sharded top-k merge
    // uses — picks the same entities regardless of traversal order, shard
    // count, or partition. Stranded entries' refs are reclaimed by the
    // pool's Reset at the next query on this thread.
    if (dominated(entry.ub)) break;

    // Inner loop: chain fusion. The trees are thin near the leaves (long
    // single-child chains), and a lazily-pushed only-child re-enters the
    // frontier with exactly its parent's bound — the bound it was just
    // popped at — so the round-trip through the heap is pure overhead.
    // An only-child instead continues here directly (the parent's
    // Remaining ref transfers to it); the yield rule after materialization
    // is unchanged, so anything that no longer leads still returns to the
    // frontier.
    while (true) {
      TreeNodeCursor& tree_cursor = *node_cursors[entry.lane];
      if (!entry.materialized) {
        // Zone-map gate: reject from the resident zone bound before
        // faulting the node in. Only unmaterialized entries are gated — a
        // materialized entry carries its own tighter bound and has already
        // paid the fault, so the dominated(entry.ub) checks cover it.
        if (const auto zone = tree_cursor.Zone(entry.node)) {
          if (dominated(zone_bound(*zone, *entry.remaining))) {
            pool.Release(entry.remaining);
            break;
          }
        }
      }
      const TreeNodeView node = tree_cursor.Node(entry.node);
      if (!tree_cursor.status().ok()) {
        // Unrecoverable node page: the view is empty, nothing to expand.
        search_status.Update(tree_cursor.status());
        pool.Release(entry.remaining);
        break;
      }
      if (!entry.materialized) {
        Remaining* own = materialize(node, *entry.remaining);
        pool.Release(entry.remaining);  // drop the ref on the parent
        entry.remaining = own;
        entry.materialized = true;
        const double ub = std::min(
            entry.ub, measure.UpperBound(q_sizes, entry.remaining->counts));
        entry.ub = ub;
        // If the tightened bound no longer leads, yield the pop.
        if (!frontier.empty() && frontier.top().ub > ub) {
          entry.order = order++;
          frontier.push(entry);
          ++stats.heap_pushes;
          break;
        }
        if (dominated(ub)) {
          terminated = true;
          break;
        }
      }
      ++stats.nodes_visited;

      if (node.level == m) {
        // Leaf: exact evaluation of every member (Lines 10-14), through
        // the owning lane's trace source — in parallel past the frontier
        // when requested.
        EvalCandidates(*lanes[entry.lane].source, lanes[entry.lane].as_of,
                       measure, q, q_sizes, kernel, w0, w1, node.entities,
                       options, lane_cursor(entry.lane), heap, stats, scratch,
                       search_status);
        pool.Release(entry.remaining);
        break;
      }

      // Inner node: push children lazily with the parent's bound (Lines
      // 7-8). A child's bound can only tighten below the parent's, so once
      // the k-th best score strictly dominates the parent bound the
      // children can never win (nor tie) — skipping the push keeps results
      // identical and saves the heap traffic of entries the termination
      // rule would strand in the frontier. Mirrors the strict termination
      // rule above.
      if (dominated(entry.ub)) {
        pool.Release(entry.remaining);
        break;
      }
      if (node.children.size() == 1) {
        // Fused descent: the ref on entry.remaining transfers to the child.
        entry = {entry.ub, node.children[0], entry.lane, order++,
                 /*materialized=*/false, entry.remaining};
        continue;
      }
      for (uint32_t child_idx : node.children) {
        pool.AddRef(entry.remaining);
        frontier.push({entry.ub, child_idx, entry.lane, order++,
                       /*materialized=*/false, entry.remaining});
        ++stats.heap_pushes;
      }
      pool.Release(entry.remaining);
      break;
    }
  }

  result.items = std::move(heap).Sorted();
  stats.io.Add(cursor->io());
  search_status.Update(cursor->status());
  for (const auto& lc : lane_cursors) {
    if (lc != nullptr) {
      stats.io.Add(lc->io());
      search_status.Update(lc->status());
    }
  }
  for (const auto& nc : node_cursors) {
    stats.io.Add(nc->io());
    search_status.Update(nc->status());
  }
  result.status = search_status;
  if (!result.status.ok()) result.items.clear();
  stats.elapsed_seconds = timer.ElapsedSeconds();
  stats.work_seconds = stats.elapsed_seconds;
  return result;
}

TopKResult TopKQueryProcessor::Query(EntityId q, int k,
                                     const QueryOptions& options) const {
  // The lane reads candidates at the same version the query side does, so
  // the one-lane forest shares the query cursor and charges I/O exactly
  // like the historical single-tree search.
  const SearchLane lane{tree_, source_, options.trace_as_of};
  return ForestTopKQuery({&lane, 1}, *source_, *hasher_, *measure_, q, k,
                         options);
}

TopKResult TopKQueryProcessor::BruteForce(EntityId q, int k,
                                          const QueryOptions& options) const {
  DT_CHECK(k >= 1);
  Timer timer;
  const int m = source_->hierarchy().num_levels();
  const auto cursor = source_->OpenCursorAt(options.trace_as_of);
  const TimeStep w0 = options.time_window ? options.time_window->begin : 0;
  const TimeStep w1 =
      options.time_window ? options.time_window->end : source_->horizon();
  std::vector<uint32_t> q_sizes(m);
  static thread_local QueryKernel kernel;
  kernel.Build(*cursor, q, source_->hierarchy(), source_->horizon(), w0, w1);
  for (Level l = 1; l <= m; ++l) {
    q_sizes[l - 1] =
        static_cast<uint32_t>(cursor->CellsInWindow(q, l, w0, w1).size());
  }

  std::vector<EntityId> candidates;
  candidates.reserve(tree_->num_entities());
  for (EntityId e = 0; e < source_->num_entities(); ++e) {
    if (e != q && tree_->Contains(e)) candidates.push_back(e);
  }

  TopKResult result;
  TopKHeap heap(k);
  EvalScratch scratch;
  EvalCandidates(*source_, options.trace_as_of, *measure_, q, q_sizes, kernel,
                 w0, w1, candidates, options, *cursor, heap, result.stats,
                 scratch, result.status);
  result.items = std::move(heap).Sorted();
  result.stats.io.Add(cursor->io());
  result.status.Update(cursor->status());
  if (!result.status.ok()) result.items.clear();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  result.stats.work_seconds = result.stats.elapsed_seconds;
  return result;
}

}  // namespace dtrace
