#ifndef GKNN_CORE_KNN_ENGINE_H_
#define GKNN_CORE_KNN_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/graph_grid.h"
#include "core/message_cleaner.h"
#include "core/message_list.h"
#include "core/object_table.h"
#include "core/options.h"
#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/scheduler.h"
#include "obs/trace.h"
#include "roadnet/dijkstra.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/result.h"

namespace gknn::core {

/// Objects currently located on each edge; maintained eagerly by the index
/// at ingest time and consulted by the CPU refinement step to find data
/// objects inside unresolved ranges.
using EdgeObjectMap =
    std::unordered_map<roadnet::EdgeId, std::vector<ObjectId>>;

/// How a query is executed (robustness plumbing, docs/ROBUSTNESS.md).
enum class ExecMode : uint8_t {
  /// Try the GPU pipeline; on a device error (injected fault, exhausted
  /// memory) transparently re-run the query on the CPU-only path.
  kAuto,
  /// GPU pipeline only; device errors propagate to the caller. The query
  /// server uses this so its retry/circuit-breaker policy sees failures.
  kGpuOnly,
  /// CPU-only path: host message compaction + bounded Dijkstra over the
  /// object table. Exact (same answers), just not accelerated.
  kCpuOnly,
};

/// Per-query execution controls threaded down from the server's overload
/// layer (docs/ROBUSTNESS.md "Overload control"). Optional on every query
/// entry point; null means "no budget, full fidelity".
struct QueryControl {
  /// Latency budget. The engine checks it at phase boundaries
  /// (expand/clean/SDist/top-k/refine) — the cooperative cancellation
  /// checkpoints — and aborts with Status::DeadlineExceeded, so a query
  /// that blows its budget releases its workspace (and the caller its
  /// reader lock) within one phase rather than running to completion.
  util::Deadline deadline;
  /// Brownout knob: scales the candidate-ring target rho*k. Values < 1
  /// shrink the GPU-examined region under load. Answers stay exact — the
  /// boundary refinement settles anything a smaller ring misses — the
  /// query just shifts work from the device to host refinement.
  double rho_scale = 1.0;
};

/// Per-query statistics surfaced to the benchmark harness.
struct KnnStats {
  uint32_t cells_examined = 0;       // |L| after expansion
  uint32_t expansion_rounds = 0;     // ring expansions beyond the first
  uint32_t candidate_objects = 0;    // |C|
  uint32_t candidate_vertices = 0;   // |V| sent to GPU_SDist
  uint32_t sdist_iterations = 0;     // Bellman-Ford rounds executed
  uint32_t unresolved_vertices = 0;  // |U|
  uint32_t refined_objects = 0;      // distinct objects Refine_kNN added
  double clean_pipeline_seconds = 0;  // modeled cleaning pipeline time
  double gpu_seconds = 0;             // modeled device time (kernels+copies)
  double cpu_seconds = 0;             // measured host time of CPU phases
  uint64_t h2d_bytes = 0;             // transfer volume for this query
  uint64_t d2h_bytes = 0;
  double transfer_seconds = 0;        // modeled PCIe time for this query
  /// Trace id of this query (0 when the engine has no tracer). Concurrent
  /// callers use it to find their own record in the trace ring.
  uint64_t query_id = 0;
  /// True when the answer came from the CPU-only path (requested via
  /// ExecMode::kCpuOnly or after a device error under kAuto).
  bool cpu_fallback = false;
};

/// Cumulative degradation counters of one engine (never reset). The fields
/// are relaxed atomics so concurrent queries can bump them; read them
/// individually — the set is only mutually consistent while no query is in
/// flight.
struct EngineCounters {
  std::atomic<uint64_t> gpu_failures{0};  // GPU-path queries with device error
  std::atomic<uint64_t> fallback_queries{0};  // kAuto re-runs on the CPU path
  std::atomic<uint64_t> cpu_queries{0};  // queries requested as kCpuOnly
  /// kAuto queries whose GPU attempt failed on one device and succeeded
  /// after migrating to a different device of the set (multi-device only;
  /// requires a scheduler).
  std::atomic<uint64_t> migrated_queries{0};
};

/// The CPU-GPU collaborative kNN processor (paper §V, Algorithm 4):
/// candidate cells are grown around the query until the per-cell object
/// counts say they hold rho*k objects, their message lists are GPU-cleaned
/// in one batch, GPU_SDist computes subgraph shortest-path distances,
/// GPU_First_k extracts candidates, GPU_Unresolved finds boundary vertices
/// whose unresolved range could hide closer objects, and Refine_kNN
/// settles those ranges with a bounded multi-source Dijkstra on the host
/// (Algorithm 6).
///
/// kNN and range queries are one pipeline under two bounds: kNN bounds the
/// answer's count (k) and lets the search radius shrink to the running kth
/// distance; a range query fixes the radius and has no count. Both enter
/// through one front door (validation, tracing, device lease, migrate-once
/// and the kAuto CPU fallback) and run one GPU path or one CPU path.
///
/// Thread-safety (docs/CONCURRENCY.md): Query and QueryRange may be called
/// from any number of threads concurrently, provided no thread mutates the
/// index structures (message lists, object table, grid) at the same time —
/// lazy message cleaning is the one mutation queries perform themselves,
/// and MessageCleaner serializes it per cell. Each in-flight query checks
/// out a private QueryWorkspace (scratch vectors + Dijkstra state) from an
/// internal freelist, so queries share no mutable engine state beyond the
/// atomic counters and the tracer.
class KnnEngine {
 public:
  KnnEngine(gpusim::Device* device, const GraphGrid* grid,
            MessageCleaner* cleaner, BucketArena* arena,
            std::vector<MessageList>* lists, const ObjectTable* object_table,
            const std::vector<uint32_t>* cell_object_counts,
            const EdgeObjectMap* objects_on_edge, const GGridOptions* options);

  /// Answers one snapshot kNN query at time `t_now`. Returns up to k
  /// entries sorted by ascending network distance (fewer when the whole
  /// network holds fewer reachable objects). `mode` selects the execution
  /// path; under the default kAuto a device error falls back to the exact
  /// CPU-only path, so only argument errors reach the caller.
  util::Result<std::vector<KnnResultEntry>> Query(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  /// Range variant (an extension beyond the paper): every object within
  /// network distance `radius` of `location`, sorted ascending. The same
  /// pipeline as Query with no count limit: no ring target (the query's
  /// immediate cells are cleaned), GPU_First_k keeps every candidate
  /// within `radius`, and refinement is bounded by `radius`.
  util::Result<std::vector<KnnResultEntry>> QueryRange(
      roadnet::EdgePoint location, roadnet::Distance radius, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  const EngineCounters& counters() const { return counters_; }

  /// Attaches the multi-device scheduler: each GPU-path query then leases
  /// a device per attempt instead of pinning to the construction-time
  /// device, and a device error under kAuto first migrates once to a
  /// different device before falling back to the CPU path. Null (the
  /// default) keeps every query on the construction-time device. Not
  /// thread-safe against in-flight queries; set it during setup.
  void set_scheduler(gpusim::Scheduler* scheduler) { scheduler_ = scheduler; }

  /// Attaches the observability tracer: every Query/QueryRange then emits
  /// a QueryTraceRecord with per-phase spans. Null (the default) disables
  /// tracing entirely — the query path takes no clock reads. Not
  /// thread-safe against in-flight queries; set it during setup.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Everything one in-flight query mutates on the host: the bounded
  /// Dijkstra used by refinement and the epoch-stamped vertex maps (dense
  /// vertex -> local id of the SDist region; membership of the unresolved
  /// seed set). Checked out of `free_workspaces_` for the duration of a
  /// query so concurrent queries never share scratch state.
  struct QueryWorkspace {
    explicit QueryWorkspace(const roadnet::Graph* graph)
        : search(graph),
          local_id_of_vertex(graph->num_vertices(), 0),
          local_id_epoch(graph->num_vertices(), 0),
          seed_epoch_of(graph->num_vertices(), 0) {}

    roadnet::BoundedDijkstra search;
    std::vector<uint32_t> local_id_of_vertex;
    std::vector<uint64_t> local_id_epoch;
    uint64_t query_epoch = 0;
    std::vector<uint64_t> seed_epoch_of;
    uint64_t seed_epoch = 0;
  };

  /// RAII checkout of a QueryWorkspace; returns it to the freelist on
  /// destruction.
  class WorkspaceLease {
   public:
    explicit WorkspaceLease(KnnEngine* engine)
        : engine_(engine), workspace_(engine->AcquireWorkspace()) {}
    ~WorkspaceLease() { engine_->ReleaseWorkspace(std::move(workspace_)); }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;
    QueryWorkspace& operator*() { return *workspace_; }

   private:
    KnnEngine* engine_;
    std::unique_ptr<QueryWorkspace> workspace_;
  };

  std::unique_ptr<QueryWorkspace> AcquireWorkspace();
  void ReleaseWorkspace(std::unique_ptr<QueryWorkspace> workspace);

  util::Status ValidateLocation(roadnet::EdgePoint location) const;

  /// A span over `phase` charging into `trace`; a no-op span when the
  /// engine has no tracer or the caller passed no record (the kAuto
  /// fallback re-run passes null so its inner phases are not double
  /// counted under the kFallback span).
  obs::Span PhaseSpan(obs::QueryTraceRecord* trace, obs::Phase phase) const {
    if (tracer_ == nullptr || trace == nullptr) return obs::Span{};
    return tracer_->StartSpan(trace, phase);
  }

  /// What one query asks for: kNN is {k, kInfiniteDistance}, a range
  /// query is {kNoCountLimit, R}. The pipeline reads it at five points —
  /// the ring target (rho*k, none without a count), what GPU_First_k keeps
  /// (the k smallest candidates within the radius), the unresolved
  /// threshold l (the kth candidate distance, else the radius), the
  /// refinement radius (the running kth bound, starting at the radius) and
  /// the answer (sorted, cut to k).
  struct Bound {
    static constexpr uint32_t kNoCountLimit =
        std::numeric_limits<uint32_t>::max();
    uint32_t k;
    roadnet::Distance radius;
    bool counted() const { return k != kNoCountLimit; }
  };

  /// The one front door: validates the query, records its trace, leases a
  /// device per GPU attempt, migrates once on a multi-device set and falls
  /// back to the CPU path under kAuto.
  util::Result<std::vector<KnnResultEntry>> Run(
      roadnet::EdgePoint location, Bound bound, double t_now,
      KnnStats* stats, ExecMode mode, const QueryControl* control);
  /// The paper's pipeline (GPU cleaning + SDist + First_k + Unresolved +
  /// CPU refinement), executed on `device` (index `device_index` of the
  /// set, used to route cleaning to that device's staging context). Any
  /// device error aborts the query and propagates.
  util::Result<std::vector<KnnResultEntry>> QueryGpu(
      gpusim::Device* device, uint32_t device_index,
      roadnet::EdgePoint location, Bound bound, double t_now,
      KnnStats* stats, obs::QueryTraceRecord* trace, QueryWorkspace& ws,
      const QueryControl* control);
  /// Exact host-only execution: CleanCpu over the query's cells, then one
  /// bounded Dijkstra from the query point over the eagerly maintained
  /// object table, its radius shrinking with the running kth-best bound
  /// (fixed at the radius when the bound has no count).
  util::Result<std::vector<KnnResultEntry>> QueryCpu(
      roadnet::EdgePoint location, Bound bound, double t_now,
      KnnStats* stats, obs::QueryTraceRecord* trace, QueryWorkspace& ws,
      const QueryControl* control);
  /// Construction-time device; every query runs here when no scheduler is
  /// attached (single-device builds), and it seeds device_index 0.
  gpusim::Device* device_;
  /// Optional multi-device placement (see set_scheduler). Not owned.
  gpusim::Scheduler* scheduler_ = nullptr;
  const GraphGrid* grid_;
  MessageCleaner* cleaner_;
  BucketArena* arena_;
  std::vector<MessageList>* lists_;
  const ObjectTable* object_table_;
  /// Live objects per cell (the index's eager tally of object_table_):
  /// sizes the candidate rings before any of them is cleaned.
  const std::vector<uint32_t>* cell_object_counts_;
  const EdgeObjectMap* objects_on_edge_;
  const GGridOptions* options_;

  /// Freelist of reusable query workspaces; grows to the high-water mark
  /// of concurrent queries. Guarded by ws_mu_ (a lock-order leaf: the
  /// freelist pop/push never acquires anything else).
  util::lockdep::Mutex ws_mu_{util::lockdep::kEngineWorkspaceClass};
  std::vector<std::unique_ptr<QueryWorkspace>> free_workspaces_;

  EngineCounters counters_;

  obs::Tracer* tracer_ = nullptr;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_KNN_ENGINE_H_
