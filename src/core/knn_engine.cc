#include "core/knn_engine.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <set>

#include "gpusim/device_buffer.h"
#include "gpusim/fault_injector.h"
#include "gpusim/scan.h"
#include "gpusim/topk.h"
#include "util/timer.h"

namespace gknn::core {

using gpusim::DeviceBuffer;
using gpusim::ThreadCtx;
using roadnet::Distance;
using roadnet::Edge;
using roadnet::EdgeId;
using roadnet::EdgePoint;
using roadnet::kInfiniteDistance;
using roadnet::kInvalidVertex;
using roadnet::VertexId;

namespace {

/// Shrinking kNN bound over *distinct* objects: the kth-smallest of each
/// known object's best distance. An upper bound on the true kth distance,
/// so using it as a search radius never cuts off a result; dedup matters —
/// counting one object twice would tighten the bound incorrectly.
class KthBound {
 public:
  /// Starts at `radius`: without k known objects the kth distance is
  /// bounded only by the query's radius.
  KthBound(uint32_t k, roadnet::Distance radius)
      : k_(k), threshold_(std::min(radius, roadnet::kInfiniteDistance - 1)) {}

  void Offer(ObjectId object, roadnet::Distance d) {
    auto [it, inserted] = best_.emplace(object, d);
    if (!inserted) {
      if (d >= it->second) return;
      values_.erase(values_.find(it->second));
      it->second = d;
    }
    values_.insert(d);
    if (values_.size() >= k_) {
      auto kth = values_.begin();
      std::advance(kth, k_ - 1);
      threshold_ = *kth;
    }
  }

  roadnet::Distance threshold() const { return threshold_; }

 private:
  uint32_t k_;
  std::unordered_map<ObjectId, roadnet::Distance> best_;
  std::multiset<roadnet::Distance> values_;
  roadnet::Distance threshold_;
};

/// Cooperative cancellation checkpoint (docs/ROBUSTNESS.md "Overload
/// control"): consulted between pipeline phases. Returning the error from
/// a phase boundary lets RAII unwind the workspace lease (and the
/// caller's reader lock) without any phase observing a half-cancelled
/// state.
util::Status CheckBudget(const QueryControl* control, const char* phase) {
  if (control != nullptr && control->deadline.Expired()) {
    return util::Status::DeadlineExceeded(
        std::string("query budget exhausted after ") + phase);
  }
  return util::Status::OK();
}

/// Candidate-ring target: rho*k, shrunk by the brownout rho_scale but
/// never below k itself (a ring smaller than k forces a degenerate
/// all-refinement query).
double RhoK(const GGridOptions& options, uint32_t k,
            const QueryControl* control) {
  double scale = control != nullptr ? control->rho_scale : 1.0;
  if (scale <= 0.0) scale = 1.0;
  const double rho = std::max(1.0, options.rho * scale);
  return rho * static_cast<double>(k);
}

/// The answer: `best` by ascending (distance, object), cut to the first k.
std::vector<KnnResultEntry> SortedAnswer(
    const std::unordered_map<ObjectId, Distance>& best, uint32_t k) {
  std::vector<KnnResultEntry> answer;
  answer.reserve(best.size());
  for (const auto& [object, distance] : best) {
    answer.push_back(KnnResultEntry{object, distance});
  }
  const size_t keep = std::min<size_t>(k, answer.size());
  std::partial_sort(answer.begin(), answer.begin() + keep, answer.end());
  answer.resize(keep);
  return answer;
}

}  // namespace

KnnEngine::KnnEngine(gpusim::Device* device, const GraphGrid* grid,
                     MessageCleaner* cleaner, BucketArena* arena,
                     std::vector<MessageList>* lists,
                     const ObjectTable* object_table,
                     const std::vector<uint32_t>* cell_object_counts,
                     const EdgeObjectMap* objects_on_edge,
                     const GGridOptions* options)
    : device_(device),
      grid_(grid),
      cleaner_(cleaner),
      arena_(arena),
      lists_(lists),
      object_table_(object_table),
      cell_object_counts_(cell_object_counts),
      objects_on_edge_(objects_on_edge),
      options_(options) {
  // One workspace up front: the common single-threaded case then never
  // allocates on the query path, only recycles through the freelist.
  free_workspaces_.push_back(
      std::make_unique<QueryWorkspace>(&grid_->graph()));
}

std::unique_ptr<KnnEngine::QueryWorkspace> KnnEngine::AcquireWorkspace() {
  {
    util::lockdep::MutexLock lock(ws_mu_);
    if (!free_workspaces_.empty()) {
      std::unique_ptr<QueryWorkspace> ws = std::move(free_workspaces_.back());
      free_workspaces_.pop_back();
      return ws;
    }
  }
  return std::make_unique<QueryWorkspace>(&grid_->graph());
}

void KnnEngine::ReleaseWorkspace(std::unique_ptr<QueryWorkspace> workspace) {
  util::lockdep::MutexLock lock(ws_mu_);
  free_workspaces_.push_back(std::move(workspace));
}

util::Status KnnEngine::ValidateLocation(EdgePoint location) const {
  const roadnet::Graph& graph = grid_->graph();
  if (location.edge >= graph.num_edges()) {
    return util::Status::InvalidArgument("query edge out of range");
  }
  if (location.offset > graph.edge(location.edge).weight) {
    return util::Status::InvalidArgument("query offset beyond edge weight");
  }
  return util::Status::OK();
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::Query(
    EdgePoint location, uint32_t k, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  return Run(location, Bound{k, kInfiniteDistance}, t_now, stats, mode,
             control);
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::QueryRange(
    EdgePoint location, Distance radius, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  return Run(location, Bound{Bound::kNoCountLimit, radius}, t_now, stats,
             mode, control);
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::Run(
    EdgePoint location, Bound bound, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  if (bound.k == 0) return util::Status::InvalidArgument("k must be positive");
  GKNN_RETURN_NOT_OK(ValidateLocation(location));
  GKNN_RETURN_NOT_OK(CheckBudget(control, "admission"));

  WorkspaceLease lease(this);
  QueryWorkspace& ws = *lease;

  KnnStats local_stats;
  KnnStats* st = stats != nullptr ? stats : &local_stats;
  obs::QueryTraceRecord record;
  obs::QueryTraceRecord* trace = tracer_ != nullptr ? &record : nullptr;
  obs::Span total;
  if (trace != nullptr) {
    record.query_id = tracer_->NextQueryId();
    record.t_query = t_now;
    record.k = bound.counted() ? bound.k : 0;
    record.range = !bound.counted();
    record.exec_mode = static_cast<uint8_t>(mode);
    total = tracer_->StartTotal(trace);
  }
  auto finish = [&](util::Result<std::vector<KnnResultEntry>> result) {
    total.Stop();
    if (trace != nullptr) {
      st->query_id = record.query_id;
      record.ok = result.ok();
      record.results =
          result.ok() ? static_cast<uint32_t>(result->size()) : 0;
      record.cpu_fallback = st->cpu_fallback;
      record.cells_examined = st->cells_examined;
      tracer_->FinishQuery(std::move(record));
    }
    return result;
  };

  if (mode == ExecMode::kCpuOnly) {
    ++counters_.cpu_queries;
    return finish(QueryCpu(location, bound, t_now, st, trace, ws, control));
  }
  // One GPU attempt: lease a device from the scheduler (or pin to the
  // construction-time device without one), run the pipeline there, and
  // feed the outcome back into the scheduler's health tracking. The lease
  // spans only the attempt — a stream slot, not a query-lifetime claim.
  uint32_t last_device = 0;
  auto gpu_attempt =
      [&](bool avoid_last) -> util::Result<std::vector<KnnResultEntry>> {
    if (scheduler_ == nullptr) {
      last_device = 0;
      return QueryGpu(device_, 0, location, bound, t_now, st, trace, ws,
                      control);
    }
    gpusim::Scheduler::Lease sched_lease =
        avoid_last ? scheduler_->AcquireAvoiding(last_device)
                   : scheduler_->Acquire();
    last_device = sched_lease.device_index();
    util::Result<std::vector<KnnResultEntry>> r =
        QueryGpu(sched_lease.device(), sched_lease.device_index(), location,
                 bound, t_now, st, trace, ws, control);
    scheduler_->ReportResult(sched_lease.device_index(),
                             !r.ok() && gpusim::IsDeviceError(r.status()));
    return r;
  };
  util::Result<std::vector<KnnResultEntry>> result =
      gpu_attempt(/*avoid_last=*/false);
  // DeadlineExceeded is not a device error, so a budget abort propagates
  // here instead of burning the remaining (already negative) budget on a
  // CPU re-run.
  if (!result.ok() && gpusim::IsDeviceError(result.status())) {
    ++counters_.gpu_failures;
    if (trace != nullptr) ++record.fault_events;
    if (mode == ExecMode::kAuto && scheduler_ != nullptr &&
        scheduler_->num_devices() > 1) {
      // Migrate once: re-run on a different device of the set before
      // surrendering the query to the CPU path. One failed fault domain
      // then costs a retry, not the GPU acceleration.
      result = gpu_attempt(/*avoid_last=*/true);
      if (result.ok()) {
        ++counters_.migrated_queries;
      } else if (gpusim::IsDeviceError(result.status())) {
        ++counters_.gpu_failures;
        if (trace != nullptr) ++record.fault_events;
      }
    }
    if (!result.ok() && gpusim::IsDeviceError(result.status()) &&
        mode == ExecMode::kAuto) {
      ++counters_.fallback_queries;
      // The re-run traces as one kFallback phase; its inner phases get a
      // null record so the fallback span alone accounts for the time.
      obs::Span fallback = PhaseSpan(trace, obs::Phase::kFallback);
      result = QueryCpu(location, bound, t_now, st, nullptr, ws, control);
      fallback.Stop();
    }
  }
  return finish(std::move(result));
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::QueryGpu(
    gpusim::Device* device, uint32_t device_index, EdgePoint location,
    Bound bound, double t_now, KnnStats* stats, obs::QueryTraceRecord* trace,
    QueryWorkspace& ws, const QueryControl* control) {
  const roadnet::Graph& graph = grid_->graph();
  const Edge& query_edge = graph.edge(location.edge);

  KnnStats local_stats;
  KnnStats& st = stats != nullptr ? *stats : local_stats;
  st = KnnStats{};
  const auto ledger_before = device->ledger().totals();
  const double device_clock_before = device->ClockSeconds();
  const double sim_wall_before = device->sim_wall_seconds();
  util::Timer cpu_timer;

  // ---- Step 1 (Alg. 4 lines 1-4): candidate cells + message cleaning -----
  obs::Span expand_span = PhaseSpan(trace, obs::Phase::kExpand);
  std::vector<char> in_l(grid_->num_cells(), 0);
  std::vector<CellId> l_cells;
  auto add_cell = [&](CellId c) {
    if (!in_l[c]) {
      in_l[c] = 1;
      l_cells.push_back(c);
    }
  };
  const CellId query_cell = grid_->CellOfEdge(location.edge);
  add_cell(query_cell);
  // The SDist seed vertex is the query edge's target; make sure its cell is
  // part of the examined region.
  add_cell(grid_->CellOfVertex(query_edge.target));
  for (CellId c : grid_->NeighborCells(query_cell)) add_cell(c);
  expand_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "expand"));

  // Rings are sized on the host from the index's eager per-cell object
  // counts: grow until the counted objects reach rho*k, then clean every
  // new cell in one batch. Under the sender contract (one report per
  // t_Delta) the counts equal what cleaning returns, so one batch finds
  // exactly the cells ring-by-ring cleaning would stop at. A batch that
  // comes back short — objects that stopped reporting expired out of
  // their lists — continues from what it found: further rings, sized the
  // same way, cleaned in a further batch. A range query has no count to
  // reach: it cleans the query's immediate cells, and refinement settles
  // everything within the radius beyond them.
  const std::vector<uint32_t>& counts = *cell_object_counts_;
  std::vector<Message> candidates;
  size_t clean_from = 0;     // cells in l_cells[clean_from..) not yet cleaned
  size_t frontier_from = 0;  // first cell of the outermost ring
  double counted = 0;        // objects expected in l_cells
  for (CellId c : l_cells) counted += counts[c];
  const double rho_k =
      bound.counted() ? RhoK(*options_, bound.k, control) : 0.0;
  for (;;) {
    obs::Span ring_span = PhaseSpan(trace, obs::Phase::kExpand);
    while (counted < rho_k) {
      // Expand one ring: neighbors(L) \ L. Only the outermost ring can
      // contribute new neighbors, so every cell is visited at most once.
      GKNN_RETURN_NOT_OK(CheckBudget(control, "expand"));
      const size_t before = l_cells.size();
      for (size_t i = frontier_from; i < before; ++i) {
        for (CellId nb : grid_->NeighborCells(l_cells[i])) add_cell(nb);
      }
      if (l_cells.size() == before) break;  // the whole grid is covered
      frontier_from = before;
      for (size_t i = before; i < l_cells.size(); ++i) {
        counted += counts[l_cells[i]];
      }
      ++st.expansion_rounds;
    }
    ring_span.Stop();
    if (clean_from == l_cells.size()) break;  // nothing left to clean
    const std::span<const CellId> to_clean(l_cells.data() + clean_from,
                                           l_cells.size() - clean_from);
    clean_from = l_cells.size();
    obs::Span clean_span = PhaseSpan(trace, obs::Phase::kClean);
    GKNN_ASSIGN_OR_RETURN(
        MessageCleaner::Outcome outcome,
        cleaner_->Clean(to_clean, t_now, arena_, lists_, device_index,
                        control != nullptr ? &control->deadline : nullptr));
    clean_span.Stop();
    if (trace != nullptr) {
      trace->cells_cleaned += outcome.cells_cleaned;
      trace->messages_shipped += outcome.messages_shipped;
      if (outcome.messages_shipped > outcome.latest.size()) {
        trace->messages_deduped += static_cast<uint32_t>(
            outcome.messages_shipped - outcome.latest.size());
      }
    }
    st.clean_pipeline_seconds += outcome.pipeline_seconds;
    candidates.insert(candidates.end(), outcome.latest.begin(),
                      outcome.latest.end());
    GKNN_RETURN_NOT_OK(CheckBudget(control, "clean"));
    if (static_cast<double>(candidates.size()) >= rho_k) break;
    counted = static_cast<double>(candidates.size());
  }
  st.cells_examined = static_cast<uint32_t>(l_cells.size());
  st.candidate_objects = static_cast<uint32_t>(candidates.size());

  // ---- Step 2a (Alg. 5): GPU_SDist over the candidate cells' vertices ----
  obs::Span sdist_span = PhaseSpan(trace, obs::Phase::kSdist);
  std::vector<VertexId> region_vertices;
  for (CellId c : l_cells) grid_->AppendCellVertices(c, &region_vertices);
  st.candidate_vertices = static_cast<uint32_t>(region_vertices.size());

  ++ws.query_epoch;
  for (uint32_t i = 0; i < region_vertices.size(); ++i) {
    ws.local_id_of_vertex[region_vertices[i]] = i;
    ws.local_id_epoch[region_vertices[i]] = ws.query_epoch;
  }
  // Local id of a vertex, or kInvalidVertex when it is outside the region.
  auto local_of = [&](VertexId v) -> uint32_t {
    return ws.local_id_epoch[v] == ws.query_epoch ? ws.local_id_of_vertex[v]
                                                  : kInvalidVertex;
  };

  GKNN_ASSIGN_OR_RETURN(auto device_dist,
                        DeviceBuffer<Distance>::Allocate(
                            device, region_vertices.size(), "D"));
  {
    std::vector<Distance> init(region_vertices.size(), kInfiniteDistance);
    const uint32_t seed = local_of(query_edge.target);
    if (seed != kInvalidVertex) {
      init[seed] = query_edge.weight - location.offset;
    }
    GKNN_RETURN_NOT_OK(device_dist.Upload(init).status());
  }
  // gknn-lint: allow(device-span): host reads D only after the kernels
  // complete; in-kernel accesses go through the checked Load/AtomicMin.
  auto dist_span = device_dist.device_span();

  // One thread per vertex entry (real or virtual); each relaxes the
  // delta_v in-edges it stores, with a device-wide barrier per round.
  // Distinct threads can touch the same D entry within a round — a virtual
  // continuation slot shares its destination vertex with the real entry,
  // and every thread reads the labels of its sources while their owners
  // rewrite them — so the relaxation lowers D through AtomicMin, exactly
  // like a real CUDA Bellman-Ford kernel. The plain Load of a source label
  // beside those atomics reads some settled value of the round; either
  // value keeps the label an upper bound that the fixpoint iteration
  // finishes off.
  struct SlotRef {
    CellId cell;
    uint32_t slot;
  };
  std::vector<SlotRef> slots;
  for (CellId c : l_cells) {
    for (uint32_t i = 0; i < grid_->NumSlots(c); ++i) {
      slots.push_back(SlotRef{c, i});
    }
  }
  GKNN_ASSIGN_OR_RETURN(
      const auto sdist_stats,
      device->LaunchIterative(
      "GPU_SDist", static_cast<uint32_t>(slots.size()),
      /*max_iters=*/std::max<uint32_t>(1, st.candidate_vertices),
      options_->sdist_early_exit,
      [this, &slots, &local_of, &device_dist](ThreadCtx& ctx, uint32_t) {
        const SlotRef ref = slots[ctx.thread_id];
        const GraphGrid::VertexSlot& slot = grid_->Slot(ref.cell, ref.slot);
        bool changed = false;
        if (!slot.empty()) {
          const uint32_t self = local_of(slot.vertex);
          for (const GraphGrid::EdgeEntry& e :
               grid_->SlotEdges(ref.cell, ref.slot)) {
            const uint32_t src = local_of(e.source);
            if (src == kInvalidVertex) continue;  // edge from outside L
            const Distance d = device_dist.Load(ctx, src);
            if (d != kInfiniteDistance &&
                device_dist.AtomicMin(ctx, self, d + e.weight) >
                    d + e.weight) {
              changed = true;
            }
          }
        }
        ctx.CountOps(grid_->delta_v());
        return changed;
      }));
  st.sdist_iterations = sdist_stats.iterations;
  sdist_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "sdist"));

  // ---- Step 2b: GPU_First_k — candidate distances + k smallest within the
  // radius (every candidate within it when the bound has no count) ---------
  obs::Span topk_span = PhaseSpan(trace, obs::Phase::kTopk);
  auto object_distance = [&graph, &local_of, &device_dist, location](
                             ThreadCtx& ctx, const Message& m) -> Distance {
    const Edge& e = graph.edge(m.edge);
    Distance d = kInfiniteDistance;
    const uint32_t src = local_of(e.source);
    if (src != kInvalidVertex) {
      const Distance ds = device_dist.Load(ctx, src);
      if (ds != kInfiniteDistance) d = ds + m.offset;
    }
    if (m.edge == location.edge && m.offset >= location.offset) {
      // Object ahead of the query on the same edge: direct along-edge path.
      d = std::min<Distance>(d, m.offset - location.offset);
    }
    return d;
  };

  // Per-candidate distance entries, computed and selected on the device.
  // Ties break by object id before buffer position, so the selected
  // *objects* do not depend on the order cleaning emitted the candidates
  // in — a concurrent run and its single-threaded replay pick the same
  // winners.
  struct DistEntry {
    Distance distance = kInfiniteDistance;
    ObjectId object = std::numeric_limits<ObjectId>::max();
    uint32_t index = std::numeric_limits<uint32_t>::max();
    bool operator<(const DistEntry& other) const {
      if (distance != other.distance) return distance < other.distance;
      if (object != other.object) return object < other.object;
      return index < other.index;
    }
  };
  std::vector<KnnResultEntry> candidate_topk;
  if (!candidates.empty()) {
    GKNN_ASSIGN_OR_RETURN(auto device_entries,
                          DeviceBuffer<DistEntry>::Allocate(
                              device, candidates.size(), "entries"));
    // gknn-lint: allow(device-span): handed to gpusim::TopKSmallest, which
    // performs its own checked accesses.
    auto entry_span = device_entries.device_span();
    GKNN_RETURN_NOT_OK(
        device
            ->Launch("GPU_First_k/distances",
                     static_cast<uint32_t>(candidates.size()),
                     [&candidates, &device_entries,
                      &object_distance](ThreadCtx& ctx) {
                       const Message& m = candidates[ctx.thread_id];
                       device_entries.Store(
                           ctx, ctx.thread_id,
                           DistEntry{object_distance(ctx, m), m.object,
                                     ctx.thread_id});
                       ctx.CountOps(2);
                     })
            .status());
    // GPU_First_k: warp-bitonic k-smallest selection on the device; the k
    // winners come back to the host (charged inside TopKSmallest, which
    // clamps k to the candidate count).
    GKNN_ASSIGN_OR_RETURN(const auto selected,
                          gpusim::TopKSmallest<DistEntry>(
                              device, entry_span, bound.k, DistEntry{}));
    for (const DistEntry& e : selected) {
      if (e.distance != kInfiniteDistance && e.distance <= bound.radius) {
        candidate_topk.push_back(
            KnnResultEntry{candidates[e.index].object, e.distance});
      }
    }
  }
  const Distance l = candidate_topk.size() >= bound.k
                         ? candidate_topk.back().distance
                         : bound.radius;
  topk_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "topk"));

  // ---- Step 2c: GPU_Unresolved — boundary vertices with D[v] < l ---------
  // Stream compaction on the device: flag kernel -> exclusive scan ->
  // scatter kernel, then one copy to the host of the compacted set with
  // its count in front (entry 0), so the host learns how many vertices
  // are unresolved from the same readback — one copy even when none are.
  obs::Span unresolved_span = PhaseSpan(trace, obs::Phase::kUnresolved);
  using UnresolvedEntry = std::pair<VertexId, Distance>;
  std::vector<UnresolvedEntry> unresolved;
  {
    const uint32_t n = static_cast<uint32_t>(region_vertices.size());
    GKNN_DCHECK(n > 0);  // the query edge's target cell is in the region
    auto is_unresolved = [this, &device_dist, l, &graph, &region_vertices,
                          &in_l](ThreadCtx& ctx, uint32_t i) {
      if (device_dist.Load(ctx, i) >= l) return false;
      for (EdgeId id : graph.OutEdgeIds(region_vertices[i])) {
        if (!in_l[grid_->CellOfVertex(graph.edge(id).target)]) return true;
      }
      return false;
    };
    GKNN_ASSIGN_OR_RETURN(
        auto flags, DeviceBuffer<uint32_t>::Allocate(device, n, "flags"));
    // gknn-lint: allow(device-span): handed to gpusim::ExclusiveScan, which
    // performs its own checked accesses.
    auto flag_span = flags.device_span();
    GKNN_RETURN_NOT_OK(
        device
            ->Launch("GPU_Unresolved/flag", n,
                     [&flags, &is_unresolved, &graph,
                      &region_vertices](ThreadCtx& ctx) {
                       flags.Store(ctx, ctx.thread_id,
                                   is_unresolved(ctx, ctx.thread_id) ? 1 : 0);
                       ctx.CountOps(
                           1 + graph.OutDegree(region_vertices[ctx.thread_id]));
                     })
            .status());
    // The scan total stays on the device: the host allocates the
    // compacted buffer for the worst case (every vertex unresolved) plus
    // the count entry, and the readback carries count + entries.
    GKNN_ASSIGN_OR_RETURN(const uint32_t total,
                          gpusim::ExclusiveScan(device, flag_span));
    GKNN_ASSIGN_OR_RETURN(auto compacted,
                          DeviceBuffer<UnresolvedEntry>::Allocate(
                              device, size_t{n} + 1, "unresolved"));
    GKNN_RETURN_NOT_OK(
        device
            ->Launch("GPU_Unresolved/scatter", n,
                     [&is_unresolved, &compacted, &flags, &region_vertices,
                      &device_dist, n](ThreadCtx& ctx) {
                       ctx.CountOps(1);
                       const bool flagged = is_unresolved(ctx, ctx.thread_id);
                       const uint32_t slot = flags.Load(ctx, ctx.thread_id);
                       if (flagged) {
                         compacted.Store(
                             ctx, 1 + slot,
                             UnresolvedEntry{
                                 region_vertices[ctx.thread_id],
                                 device_dist.Load(ctx, ctx.thread_id)});
                       }
                       if (ctx.thread_id == n - 1) {
                         // Last exclusive-scan slot + own flag = the count.
                         compacted.Store(
                             ctx, 0,
                             UnresolvedEntry{slot + (flagged ? 1 : 0), 0});
                       }
                     })
            .status());
    std::vector<UnresolvedEntry> readback(size_t{total} + 1);
    GKNN_RETURN_NOT_OK(
        compacted.Download(readback.data(), readback.size()).status());
    GKNN_DCHECK(readback[0].first == total);
    unresolved.assign(readback.begin() + 1, readback.end());
  }
  st.unresolved_vertices = static_cast<uint32_t>(unresolved.size());
  // Mark the seeds so the refinement prune below can recognize them.
  ++ws.seed_epoch;
  for (const auto& [v, dv] : unresolved) {
    (void)dv;
    ws.seed_epoch_of[v] = ws.seed_epoch;
  }
  unresolved_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "unresolved"));

  // ---- Step 3 (Alg. 6): Refine_kNN on the host ---------------------------
  obs::Span refine_span = PhaseSpan(trace, obs::Phase::kRefine);
  std::vector<KnnResultEntry> refined;
  if (!unresolved.empty()) {
    // One multi-source bounded Dijkstra over all unresolved vertices, each
    // seeded at its already-computed distance D[v]. Equivalent to the
    // paper's per-vertex searches of radius l - D[v] (both settle exactly
    // the locations within absolute distance l through some unresolved
    // vertex) but shares the work their overlapping ranges would repeat,
    // and settles vertices in one deterministic priority order — so a
    // concurrent run and its single-threaded replay find the same objects.
    roadnet::BoundedDijkstra& search = ws.search;
    search.set_deadline(control != nullptr ? &control->deadline : nullptr);
    search.BeginSearch();
    for (const auto& [v, dv] : unresolved) search.SeedMore(v, dv);
    // The search bound starts at l and tightens as refinement discovers
    // closer objects: the running kth-best estimate over candidates +
    // finds (a fixed radius when the bound has no count).
    KthBound kth(bound.k, bound.radius);
    for (const KnnResultEntry& c : candidate_topk) {
      kth.Offer(c.object, c.distance);
    }
    search.SearchPrunedDynamic(
        [&]() -> Distance { return kth.threshold(); },
        [&](VertexId x, Distance dx) {
          for (EdgeId id : graph.OutEdgeIds(x)) {
            auto it = objects_on_edge_->find(id);
            if (it == objects_on_edge_->end()) continue;
            for (ObjectId o : it->second) {
              const ObjectTable::Entry* entry = object_table_->Find(o);
              if (entry == nullptr || entry->edge != id) continue;
              const Distance d = dx + entry->offset;
              if (d > bound.radius) continue;
              refined.push_back(KnnResultEntry{o, d});
              kth.Offer(o, d);
            }
          }
          // Prune: a non-seed region vertex settled at >= its SDist label
          // adds nothing — its in-region continuations were already relaxed
          // by GPU_SDist, and any out-of-region edge would have made it an
          // unresolved seed itself (or its label is >= l, beyond the
          // radius). Seeds always expand: they are the gateways out of the
          // region.
          const uint32_t lx = local_of(x);
          if (lx != kInvalidVertex && ws.seed_epoch_of[x] != ws.seed_epoch &&
              dx >= dist_span[lx]) {
            return false;
          }
          return true;
        });
  }
  refine_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "refine"));

  // ---- Final merge ---------------------------------------------------------
  // Candidates beyond the top k cannot enter the answer (their distance is
  // >= l, and k candidates at <= l exist); refinement supplies any closer
  // path to them on its own. So merging top-k + refined is sufficient.
  std::unordered_map<ObjectId, Distance> best;
  best.reserve(candidate_topk.size());
  for (const KnnResultEntry& e : candidate_topk) {
    auto [it, inserted] = best.emplace(e.object, e.distance);
    if (!inserted) it->second = std::min(it->second, e.distance);
  }
  uint32_t refined_objects = 0;
  for (const KnnResultEntry& e : refined) {
    auto [it, inserted] = best.emplace(e.object, e.distance);
    if (inserted) {
      ++refined_objects;
    } else {
      it->second = std::min(it->second, e.distance);
    }
  }
  st.refined_objects = refined_objects;

  const auto ledger_after = device->ledger().totals();
  st.h2d_bytes = ledger_after.h2d_bytes - ledger_before.h2d_bytes;
  st.d2h_bytes = ledger_after.d2h_bytes - ledger_before.d2h_bytes;
  st.transfer_seconds =
      ledger_after.total_seconds() - ledger_before.total_seconds();
  st.gpu_seconds = device->ClockSeconds() - device_clock_before;
  // Host time excludes the wall clock the simulator spent executing
  // kernels functionally — that work runs on the device in a real
  // deployment and is billed through gpu_seconds. Under concurrent
  // queries the ledger and clock deltas fold in any overlapping query's
  // device work; exact per-query attribution needs a quiesced device.
  st.cpu_seconds =
      std::max(0.0, cpu_timer.ElapsedSeconds() -
                        (device->sim_wall_seconds() - sim_wall_before));

  return SortedAnswer(best, bound.k);
}

// ---- CPU-only execution (degraded mode) -----------------------------------
//
// The index maintains object_table_ and objects_on_edge_ eagerly at ingest
// time, so the current location of every object is known on the host
// without any message cleaning. A single bounded Dijkstra from the query
// point over those tables is therefore *exact* — the same answers as the
// full pipeline — just without the GPU's parallelism. Message lists are
// still compacted (host-side) so degraded operation does not let them grow
// without bound.

util::Result<std::vector<KnnResultEntry>> KnnEngine::QueryCpu(
    EdgePoint location, Bound bound, double t_now, KnnStats* stats,
    obs::QueryTraceRecord* trace, QueryWorkspace& ws,
    const QueryControl* control) {
  const roadnet::Graph& graph = grid_->graph();
  const Edge& query_edge = graph.edge(location.edge);
  KnnStats local_stats;
  KnnStats& st = stats != nullptr ? *stats : local_stats;
  st = KnnStats{};
  st.cpu_fallback = true;
  util::Timer cpu_timer;

  // Host-side compaction of the query's immediate cells: same maintenance
  // the GPU path would have performed, zero device work.
  std::vector<CellId> l_cells;
  {
    std::vector<char> in_l(grid_->num_cells(), 0);
    auto add_cell = [&](CellId c) {
      if (!in_l[c]) {
        in_l[c] = 1;
        l_cells.push_back(c);
      }
    };
    const CellId query_cell = grid_->CellOfEdge(location.edge);
    add_cell(query_cell);
    add_cell(grid_->CellOfVertex(query_edge.target));
    for (CellId nb : grid_->NeighborCells(query_cell)) add_cell(nb);
  }
  obs::Span clean_span = PhaseSpan(trace, obs::Phase::kClean);
  GKNN_ASSIGN_OR_RETURN(MessageCleaner::Outcome outcome,
                        cleaner_->CleanCpu(l_cells, t_now, arena_, lists_));
  clean_span.Stop();
  if (trace != nullptr) trace->cells_cleaned += outcome.cells_cleaned;
  st.cells_examined = static_cast<uint32_t>(l_cells.size());
  st.candidate_objects = static_cast<uint32_t>(outcome.latest.size());
  GKNN_RETURN_NOT_OK(CheckBudget(control, "clean"));

  obs::Span refine_span = PhaseSpan(trace, obs::Phase::kRefine);
  std::unordered_map<ObjectId, Distance> best;
  KthBound kth(bound.k, bound.radius);
  auto offer = [&](ObjectId o, Distance d) {
    if (d > bound.radius) return;
    auto [it, inserted] = best.emplace(o, d);
    if (!inserted) it->second = std::min(it->second, d);
    kth.Offer(o, d);
  };
  // Objects ahead of the query on its own edge: direct along-edge path,
  // the one route that does not pass through the edge's target.
  if (auto it = objects_on_edge_->find(location.edge);
      it != objects_on_edge_->end()) {
    for (ObjectId o : it->second) {
      const ObjectTable::Entry* entry = object_table_->Find(o);
      if (entry != nullptr && entry->edge == location.edge &&
          entry->offset >= location.offset) {
        offer(o, entry->offset - location.offset);
      }
    }
  }
  // Every other route starts at the query edge's target. The search radius
  // is the running kth-best bound over distinct objects — it starts at the
  // query's radius (the whole network is in scope for a kNN query while
  // fewer than k objects are known) and shrinks as objects are discovered.
  roadnet::BoundedDijkstra& search = ws.search;
  search.set_deadline(control != nullptr ? &control->deadline : nullptr);
  search.BeginSearch();
  search.SeedMore(query_edge.target, query_edge.weight - location.offset);
  search.SearchPrunedDynamic(
      [&]() -> Distance { return kth.threshold(); },
      [&](VertexId x, Distance dx) {
        for (EdgeId id : graph.OutEdgeIds(x)) {
          auto oit = objects_on_edge_->find(id);
          if (oit == objects_on_edge_->end()) continue;
          for (ObjectId o : oit->second) {
            const ObjectTable::Entry* entry = object_table_->Find(o);
            if (entry == nullptr || entry->edge != id) continue;
            offer(o, dx + entry->offset);
          }
        }
        return true;
      });
  refine_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "refine"));
  st.refined_objects = static_cast<uint32_t>(best.size());
  st.cpu_seconds = cpu_timer.ElapsedSeconds();
  return SortedAnswer(best, bound.k);
}

}  // namespace gknn::core
