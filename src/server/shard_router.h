#ifndef GKNN_SERVER_SHARD_ROUTER_H_
#define GKNN_SERVER_SHARD_ROUTER_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/device_set.h"
#include "obs/metrics.h"
#include "roadnet/dijkstra.h"
#include "roadnet/graph.h"
#include "server/admission.h"
#include "server/query_server.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gknn::server {

/// Router-level knobs (docs/SHARDING.md).
struct ShardRouterOptions {
  /// Number of region shards. Each shard owns its own simulated device,
  /// GGridIndex, KnnEngine, and inbox; objects are partitioned between
  /// them by the cell of their latest position. May exceed the number of
  /// grid cells (the surplus shards own no cells and stay empty).
  uint32_t num_shards = 1;
  /// Per-shard retry/breaker policy plus the *router-level* overload
  /// knobs: query_threads sizes the router's batch pool, and
  /// default_deadline_ms / max_inflight / max_queued / brownout apply
  /// once per logical query at the router (each shard is created with
  /// admission off and an inline pool — one admission decision and one
  /// budget govern every shard a query touches).
  ServerOptions server;
  /// Configuration of each shard's devices (fault spec defaults to
  /// GKNN_FAULTS, so environment storms hit every shard; tests kill a
  /// single shard via device(s).SetFaultSpec).
  gpusim::DeviceConfig device;
  /// Simulated devices per shard: each shard owns a DeviceSet of this
  /// size and schedules its clean/query work across it (see
  /// GGridIndex::Build's multi-device form). Composes with num_shards —
  /// the process models num_shards * devices_per_shard GPUs in total.
  uint32_t devices_per_shard = 1;
  /// Fan-out target: phase 1 selects shards around the query's home shard
  /// until they hold at least max(k, fanout_rho * k) objects (by the
  /// router's approximate per-shard counts). Purely a performance
  /// heuristic — phase 3's cross-border refinement restores exactness
  /// whatever this picks.
  double fanout_rho = 2.0;
};

/// Router-level counters; every field is cumulative. The overload
/// quadruple (admitted/shed/expired/brownout) accounts *logical* queries
/// at the router gate; the per-shard ServerStats account the shard
/// sub-queries those fan out into.
struct RouterStats {
  uint64_t queries = 0;            // logical kNN queries issued
  uint64_t admitted_queries = 0;   // granted a router execution slot
  uint64_t shed_queries = 0;       // rejected: router admission queue full
  uint64_t expired_queries = 0;    // returned DeadlineExceeded
  uint64_t brownout_queries = 0;   // executed under brownout pressure
  uint64_t fanout_shards = 0;      // shard queries issued in phase 2
  uint64_t refine_shards = 0;      // extra shard queries from phase 3
  uint64_t border_refinements = 0; // queries that needed a phase-3 pass
  uint64_t full_fanouts = 0;       // queries that touched every shard
  uint64_t routed_updates = 0;     // Report/Deregister calls routed
  uint64_t cross_shard_moves = 0;  // updates that moved an object's shard
};

/// Multi-engine sharding of one logical road network (docs/SHARDING.md;
/// ROADMAP item 1). The graph is replicated — every shard's engine can
/// compute distances anywhere — but the *objects* are partitioned: an
/// object lives in exactly one shard, the shard owning the grid cell of
/// its latest reported position (roadnet::AssignCellsToShards builds the
/// deterministic cell→shard table from the same Z-ordered partition every
/// GGridIndex uses).
///
/// Updates route by cell → shard under a striped object→shard map; a
/// cross-shard move enqueues a Deregister to the old shard and the Report
/// to the new one atomically per object (stripe lock, rank 150, above the
/// shard inbox rank 200 in the lock order).
///
/// Queries run an exact three-phase protocol:
///  1. fan-out selection: starting from the query's home shard, grow over
///     the shard-adjacency graph until the selected shards hold enough
///     objects (fanout_rho);
///  2. per-shard top-k (QueryServer::QueryKnnRouted threads the router's
///     deadline and brownout pressure into each shard) merged by the
///     engine's (distance, object) order with per-object dedup;
///  3. cross-border refinement: with D the merged kth distance, a bounded
///     Dijkstra from the query point (the same machinery Refine_kNN uses
///     for unresolved boundary ranges) finds every unqueried shard owning
///     a vertex within D; those shards are queried and merged once more.
///     Any object in a shard none of whose vertices is within D sits at
///     network distance > D and cannot displace the merged top-k, so one
///     round is exact — bit-for-bit identical to a single-engine server
///     (proven by tests/test_shard_differential.cc).
///
/// Thread-safety mirrors QueryServer: Report/Deregister from any thread;
/// QueryKnn/QueryKnnBatch from any thread concurrently.
class ShardRouter {
 public:
  /// Builds num_shards devices + QueryServers over `graph` (identical
  /// deterministic grids) and the cell→shard table. The graph must
  /// outlive the router.
  static util::Result<std::unique_ptr<ShardRouter>> Create(
      const roadnet::Graph* graph, const core::GGridOptions& options,
      const ShardRouterOptions& router_options);

  ~ShardRouter();

  /// Routes one location report to the shard owning the position's cell.
  /// A move between shards deregisters the object from its old shard in
  /// the same stripe-locked step. An off-network position is forwarded to
  /// the object's current shard unrouted, where the drain drops it with
  /// the same warning a single-engine server logs (the object stays put).
  void Report(core::ObjectId object, roadnet::EdgePoint position,
              double time);

  /// Routes a deregistration to the object's current shard (shard 0 for
  /// unknown objects, where it is the same no-op it would be on a
  /// single-engine server).
  void Deregister(core::ObjectId object, double time);

  /// Answers a snapshot kNN query exactly (three-phase protocol above).
  util::Result<std::vector<core::KnnResultEntry>> QueryKnn(
      roadnet::EdgePoint location, uint32_t k, double t_now);

  /// Fans a batch over the router's pool; each task is a full logical
  /// query (router admission, budget, three phases). First error fails
  /// the batch, matching QueryServer::QueryKnnBatch.
  util::Result<std::vector<std::vector<core::KnnResultEntry>>> QueryKnnBatch(
      std::span<const roadnet::EdgePoint> locations, uint32_t k,
      double t_now);

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  QueryServer& shard(uint32_t s) { return *shards_[s]; }
  /// Device 0 of shard s's set (the only device at devices_per_shard=1).
  gpusim::Device& device(uint32_t s) { return device_sets_[s]->device(0); }
  /// Every device of shard s (size devices_per_shard).
  gpusim::DeviceSet& device_set(uint32_t s) { return *device_sets_[s]; }

  /// The deterministic routing table (one shard id per grid cell).
  const std::vector<uint32_t>& cell_to_shard() const {
    return cell_to_shard_;
  }
  uint32_t ShardOfCell(core::CellId cell) const {
    return cell_to_shard_[cell];
  }
  /// Shard owning the cell of `point`'s edge. Requires a valid edge id.
  uint32_t ShardOfPoint(roadnet::EdgePoint point) const;

  /// This router's counters (relaxed-atomic snapshot).
  RouterStats router_stats() const;

  /// One shard's degradation counters.
  ServerStats ShardStats(uint32_t s) const { return shards_[s]->stats(); }

  /// Element-wise sum of every shard's ServerStats (`degraded` is the OR:
  /// true while any shard's breaker is open).
  ServerStats AggregateStats() const;

  uint64_t pending_updates() const;
  uint64_t applied_updates() const;
  unsigned query_threads() const { return query_pool_->num_threads(); }

  /// Point-in-time view of the whole router: every shard's counters and
  /// gauges re-exposed under a `shard="i"` label, their element-wise sums
  /// under the unlabelled name (so single-engine dashboards keep working),
  /// and the gknn_router_* counters. Shard histograms are not folded —
  /// read them from shard(i).MetricsSnapshot() when needed.
  obs::RegistrySnapshot MetricsSnapshot();
  std::string MetricsPrometheus();
  std::string MetricsJson();

  /// Merges per-shard top-k lists into the global top-k: ascending
  /// (distance, object) — the engine's deterministic order — deduplicated
  /// per object keeping its best entry. k greater than the total yields
  /// every distinct object. Exposed for tests/test_shard_router.cc.
  static std::vector<core::KnnResultEntry> MergeTopK(
      const std::vector<std::vector<core::KnnResultEntry>>& per_shard,
      uint32_t k);

 private:
  static constexpr size_t kStripes = 8;

  /// One stripe of the object→shard map. Rank 150 (router.objects) sits
  /// between the index lock and the shard inboxes, so the routing step may
  /// enqueue into a shard inbox (rank 200) while holding it — that is what
  /// makes a cross-shard move's Deregister+Report pair atomic per object.
  struct Stripe {
    mutable util::lockdep::Mutex mutex{util::lockdep::kRouterObjectsClass};
    std::unordered_map<core::ObjectId, uint32_t> shard_of;
  };

  struct AtomicRouterStats {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> fanout_shards{0};
    std::atomic<uint64_t> refine_shards{0};
    std::atomic<uint64_t> border_refinements{0};
    std::atomic<uint64_t> full_fanouts{0};
    std::atomic<uint64_t> routed_updates{0};
    std::atomic<uint64_t> cross_shard_moves{0};
  };

  ShardRouter(const roadnet::Graph* graph,
              const ShardRouterOptions& options);

  Stripe& StripeOf(core::ObjectId object) {
    return stripes_[object % kStripes];
  }

  /// The full logical-query path (admission + three phases) under an
  /// explicit budget; QueryKnn passes the default budget and the batch
  /// fan-out passes its shared one.
  util::Result<std::vector<core::KnnResultEntry>> QueryKnnInternal(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      const util::Deadline& deadline);

  /// The three phases of one admitted query; `pressure` is the admission
  /// ticket's brownout bit, forwarded to every shard it queries.
  util::Result<std::vector<core::KnnResultEntry>> RunPhases(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      const util::Deadline& deadline, bool pressure);

  /// Phase 1: the ordered shard fan-out for a query homed in `home`.
  std::vector<uint32_t> SelectShards(uint32_t home, uint32_t k) const;

  /// Leases a BoundedDijkstra workspace for one phase-3 refinement.
  /// Instances are not thread-safe, so concurrent refiners each lease
  /// their own; the epoch-stamped workspace makes a recycled search
  /// O(settled), not O(|V|).
  std::unique_ptr<roadnet::BoundedDijkstra> AcquireDijkstra();
  void ReleaseDijkstra(std::unique_ptr<roadnet::BoundedDijkstra> dijkstra);

  void FoldRouterMetrics();

  const roadnet::Graph* graph_;
  ShardRouterOptions options_;
  std::vector<std::unique_ptr<gpusim::DeviceSet>> device_sets_;
  std::vector<std::unique_ptr<QueryServer>> shards_;
  const core::GraphGrid* grid_ = nullptr;  // shard 0's (all identical)
  std::vector<uint32_t> cell_to_shard_;
  /// Shard-adjacency lists (sorted, deduplicated): s' is adjacent to s
  /// when some cell of s borders a cell of s' in the grid's neighborhood
  /// relation. Built once; phase 1 grows its fan-out over this graph.
  std::vector<std::vector<uint32_t>> shard_neighbors_;
  /// Approximate live-object count per shard, maintained by the routing
  /// step (heuristic input to phase 1 only — never a correctness input).
  std::vector<std::atomic<uint64_t>> shard_objects_;

  Stripe stripes_[kStripes];
  std::unique_ptr<util::ThreadPool> query_pool_;
  AtomicRouterStats stats_;

  /// Router admission gate (docs/SHARDING.md): the same controller a
  /// QueryServer uses, applied once per logical query.
  AdmissionController admission_;

  /// Recycled refinement workspaces (leaf lock, same per-query-scratch
  /// discipline as engine.workspace — one more instance of that class).
  mutable util::lockdep::Mutex dijkstra_mu_{
      util::lockdep::kEngineWorkspaceClass};
  std::vector<std::unique_ptr<roadnet::BoundedDijkstra>> dijkstra_pool_;

  obs::MetricRegistry router_registry_;
};

}  // namespace gknn::server

#endif  // GKNN_SERVER_SHARD_ROUTER_H_
