#include "server/shard_router.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/graph_grid.h"
#include "roadnet/dijkstra.h"
#include "roadnet/partitioner.h"
#include "util/logging.h"

namespace gknn::server {

namespace {

/// `name` with a `shard="s"` label merged into its (possibly existing)
/// label set: `a_total` -> `a_total{shard="2"}` and
/// `a_total{path="gpu"}` -> `a_total{path="gpu",shard="2"}`.
std::string WithShardLabel(const std::string& name, uint32_t shard) {
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

}  // namespace

ShardRouter::ShardRouter(const roadnet::Graph* graph,
                         const ShardRouterOptions& options)
    : graph_(graph),
      options_(options),
      shard_objects_(options.num_shards),
      query_pool_(options.server.query_threads == 0
                      ? std::make_unique<util::ThreadPool>(
                            util::ThreadPool::Inline{})
                      : std::make_unique<util::ThreadPool>(
                            options.server.query_threads,
                            options.server.max_queued)),
      admission_(options.server.max_inflight, options.server.max_queued,
                 options.server.brownout,
                 options.server.default_deadline_ms) {}

ShardRouter::~ShardRouter() = default;

util::Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const roadnet::Graph* graph, const core::GGridOptions& options,
    const ShardRouterOptions& router_options) {
  if (router_options.num_shards == 0) {
    return util::Status::InvalidArgument("num_shards must be positive");
  }
  if (router_options.fanout_rho < 1.0) {
    return util::Status::InvalidArgument("fanout_rho must be >= 1");
  }
  std::unique_ptr<ShardRouter> router(
      new ShardRouter(graph, router_options));

  // Each shard runs with admission off, no default budget, and an inline
  // pool: the router applies one admission decision, one deadline, and
  // one brownout signal per *logical* query, and its own pool provides
  // the batch parallelism. Retry/breaker knobs pass through so each shard
  // degrades independently when its device dies.
  ServerOptions shard_options = router_options.server;
  shard_options.query_threads = 0;
  shard_options.max_inflight = 0;
  shard_options.max_queued = 0;
  shard_options.default_deadline_ms = 0;
  shard_options.brownout = false;  // pressure arrives via QueryKnnRouted

  const uint32_t devices_per_shard =
      std::max<uint32_t>(1, router_options.devices_per_shard);
  for (uint32_t s = 0; s < router_options.num_shards; ++s) {
    router->device_sets_.push_back(std::make_unique<gpusim::DeviceSet>(
        devices_per_shard, router_options.device));
    GKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<QueryServer> shard,
        QueryServer::Create(graph, options, router->device_sets_.back().get(),
                            shard_options));
    router->shards_.push_back(std::move(shard));
  }
  router->grid_ = &router->shards_[0]->index().grid();

  // The grids must be bit-identical across shards — the partitioner is
  // deterministic in its seed, so this only fires if that determinism
  // regresses, in which case routing by shard 0's grid would silently
  // disagree with where other shards file their cleaning work.
  for (uint32_t s = 1; s < router_options.num_shards; ++s) {
    const auto& mine =
        router->shards_[s]->index().grid().partition().cell_of_vertex;
    if (mine != router->grid_->partition().cell_of_vertex) {
      return util::Status::Internal(
          "shard " + std::to_string(s) +
          " partitioned the graph differently than shard 0; the "
          "partitioner is expected to be deterministic in its seed");
    }
  }

  GKNN_ASSIGN_OR_RETURN(
      router->cell_to_shard_,
      roadnet::AssignCellsToShards(router->grid_->partition(),
                                   router_options.num_shards));

  // Shard adjacency from the grid's cell neighborhoods (sorted, deduped).
  router->shard_neighbors_.assign(router_options.num_shards, {});
  const uint32_t num_cells = router->grid_->num_cells();
  std::vector<std::unordered_set<uint32_t>> adjacent(
      router_options.num_shards);
  for (core::CellId c = 0; c < num_cells; ++c) {
    const uint32_t sc = router->cell_to_shard_[c];
    for (core::CellId n : router->grid_->NeighborCells(c)) {
      const uint32_t sn = router->cell_to_shard_[n];
      if (sn != sc) adjacent[sc].insert(sn);
    }
  }
  for (uint32_t s = 0; s < router_options.num_shards; ++s) {
    router->shard_neighbors_[s].assign(adjacent[s].begin(),
                                       adjacent[s].end());
    std::sort(router->shard_neighbors_[s].begin(),
              router->shard_neighbors_[s].end());
  }
  return router;
}

uint32_t ShardRouter::ShardOfPoint(roadnet::EdgePoint point) const {
  return cell_to_shard_[grid_->CellOfEdge(point.edge)];
}

void ShardRouter::Report(core::ObjectId object, roadnet::EdgePoint position,
                         double time) {
  stats_.routed_updates.fetch_add(1, std::memory_order_relaxed);
  const bool valid =
      position.edge < graph_->num_edges() &&
      position.offset <= graph_->edge(position.edge).weight;
  Stripe& stripe = StripeOf(object);
  util::lockdep::MutexLock lock(stripe.mutex);
  auto it = stripe.shard_of.find(object);
  if (!valid) {
    // Keep single-engine semantics for poison updates: the entry reaches
    // a drain, is dropped there with a warning, and the object (if any)
    // stays at its last good position — so it must not be re-routed.
    const uint32_t current = it != stripe.shard_of.end() ? it->second : 0;
    shards_[current]->Report(object, position, time);
    return;
  }
  const uint32_t target = cell_to_shard_[grid_->CellOfEdge(position.edge)];
  if (it == stripe.shard_of.end()) {
    stripe.shard_of.emplace(object, target);
    shard_objects_[target].fetch_add(1, std::memory_order_relaxed);
  } else if (it->second != target) {
    // Cross-shard move: the old shard gets the departure, the new one the
    // report, both under this stripe lock so no query can observe the
    // object in two shards or in none via the routing table.
    shards_[it->second]->Deregister(object, time);
    shard_objects_[it->second].fetch_sub(1, std::memory_order_relaxed);
    shard_objects_[target].fetch_add(1, std::memory_order_relaxed);
    it->second = target;
    stats_.cross_shard_moves.fetch_add(1, std::memory_order_relaxed);
  }
  shards_[target]->Report(object, position, time);
}

void ShardRouter::Deregister(core::ObjectId object, double time) {
  stats_.routed_updates.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = StripeOf(object);
  util::lockdep::MutexLock lock(stripe.mutex);
  auto it = stripe.shard_of.find(object);
  if (it == stripe.shard_of.end()) {
    // Unknown object: same no-op Remove it would be on a single engine.
    shards_[0]->Deregister(object, time);
    return;
  }
  shards_[it->second]->Deregister(object, time);
  shard_objects_[it->second].fetch_sub(1, std::memory_order_relaxed);
  stripe.shard_of.erase(it);
}

std::vector<uint32_t> ShardRouter::SelectShards(uint32_t home,
                                                uint32_t k) const {
  const uint64_t target = std::max<uint64_t>(
      k, static_cast<uint64_t>(std::ceil(options_.fanout_rho * k)));
  std::vector<uint32_t> selected{home};
  std::vector<uint8_t> in(num_shards(), 0);
  in[home] = 1;
  uint64_t covered = shard_objects_[home].load(std::memory_order_relaxed);
  std::vector<uint32_t> frontier{home};
  // gknn-check: allow(deadline-checkpoint): BFS over the shard topology
  // visits each of the (few, fixed) shards at most once via `in`; it
  // terminates in at most num_shards() iterations with no device work.
  while (covered < target && !frontier.empty()) {
    std::vector<uint32_t> next;
    for (uint32_t s : frontier) {
      for (uint32_t n : shard_neighbors_[s]) {
        if (in[n]) continue;
        in[n] = 1;
        selected.push_back(n);
        next.push_back(n);
        covered += shard_objects_[n].load(std::memory_order_relaxed);
        if (covered >= target) break;
      }
      if (covered >= target) break;
    }
    frontier = std::move(next);
  }
  return selected;
}

std::vector<core::KnnResultEntry> ShardRouter::MergeTopK(
    const std::vector<std::vector<core::KnnResultEntry>>& per_shard,
    uint32_t k) {
  std::vector<core::KnnResultEntry> all;
  for (const auto& entries : per_shard) {
    all.insert(all.end(), entries.begin(), entries.end());
  }
  // The engine's deterministic total order; after the sort the first
  // occurrence of an object is its best entry, so the dedup is a single
  // seen-set pass.
  std::sort(all.begin(), all.end());
  std::vector<core::KnnResultEntry> merged;
  std::unordered_set<core::ObjectId> seen;
  for (const core::KnnResultEntry& entry : all) {
    if (merged.size() >= k) break;
    if (!seen.insert(entry.object).second) continue;
    merged.push_back(entry);
  }
  return merged;
}

util::Result<std::vector<core::KnnResultEntry>> ShardRouter::QueryKnn(
    roadnet::EdgePoint location, uint32_t k, double t_now) {
  return QueryKnnInternal(location, k, t_now, admission_.DefaultDeadline());
}

util::Result<std::vector<core::KnnResultEntry>>
ShardRouter::QueryKnnInternal(roadnet::EdgePoint location, uint32_t k,
                              double t_now, const util::Deadline& deadline) {
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const AdmissionTicket ticket = admission_.Admit(deadline);
  if (!ticket.ok()) return ticket.status();
  // Every exit of the three phases passes through here, so a query that
  // ends DeadlineExceeded — in a shard or in border refinement — is
  // counted expired exactly once.
  auto result = RunPhases(location, k, t_now, deadline, ticket.brownout());
  admission_.CountFinished(result.status());
  return result;
}

util::Result<std::vector<core::KnnResultEntry>> ShardRouter::RunPhases(
    roadnet::EdgePoint location, uint32_t k, double t_now,
    const util::Deadline& deadline, bool pressure) {
  // An invalid location or k is forwarded to one shard unrouted so the
  // caller sees exactly the typed validation error a single-engine server
  // returns (the selection below needs a valid edge for CellOfEdge).
  if (k == 0 || location.edge >= graph_->num_edges() ||
      location.offset > graph_->edge(location.edge).weight) {
    return shards_[0]->QueryKnnRouted(location, k, t_now, deadline, pressure);
  }

  // Phase 1: fan out to the shards the candidate ring plausibly touches.
  const uint32_t home = cell_to_shard_[grid_->CellOfEdge(location.edge)];
  std::vector<uint32_t> selected = SelectShards(home, k);
  std::vector<uint8_t> queried(num_shards(), 0);

  // Phase 2: per-shard top-k, merged in the engine's (distance, object)
  // order. The home shard is queried first — it owns the query's own
  // edge, whose objects are the one case the vertex-distance bound of
  // phase 3 does not cover.
  std::vector<std::vector<core::KnnResultEntry>> per_shard;
  per_shard.reserve(selected.size());
  for (uint32_t s : selected) {
    auto result =
        shards_[s]->QueryKnnRouted(location, k, t_now, deadline, pressure);
    if (!result.ok()) return result.status();
    per_shard.push_back(std::move(result).ValueOrDie());
    queried[s] = 1;
  }
  stats_.fanout_shards.fetch_add(selected.size(),
                                 std::memory_order_relaxed);
  std::vector<core::KnnResultEntry> merged = MergeTopK(per_shard, k);

  // Phase 3: cross-border refinement. With D the merged kth distance,
  // any object homed in an unqueried shard sits at distance
  // >= dist(q, source(its edge)), and that source vertex belongs to the
  // shard; so a shard none of whose vertices is within D cannot hold a
  // competitor, and one refinement round is exact (D only shrinks).
  if (selected.size() < num_shards()) {
    const bool have_bound = merged.size() >= k;
    const roadnet::Distance bound =
        have_bound ? merged.back().distance : roadnet::kInfiniteDistance;
    std::vector<uint32_t> extra;
    if (!have_bound) {
      // Fewer than k merged results: no exclusion bound exists; the
      // remaining shards must all be asked.
      for (uint32_t s = 0; s < num_shards(); ++s) {
        if (!queried[s]) extra.push_back(s);
      }
    } else {
      std::vector<uint8_t> reachable(num_shards(), 0);
      std::unique_ptr<roadnet::BoundedDijkstra> dijkstra = AcquireDijkstra();
      dijkstra->set_deadline(&deadline);
      dijkstra->RunFromPoint(
          location, bound, [&](roadnet::VertexId v, roadnet::Distance) {
            reachable[cell_to_shard_[grid_->CellOfVertex(v)]] = 1;
          });
      const bool expired = dijkstra->cancelled();
      ReleaseDijkstra(std::move(dijkstra));
      if (expired) {
        return util::Status::DeadlineExceeded(
            "route: query budget exhausted during border refinement");
      }
      for (uint32_t s = 0; s < num_shards(); ++s) {
        if (!queried[s] && reachable[s]) extra.push_back(s);
      }
    }
    if (!extra.empty()) {
      stats_.border_refinements.fetch_add(1, std::memory_order_relaxed);
      stats_.refine_shards.fetch_add(extra.size(),
                                     std::memory_order_relaxed);
      for (uint32_t s : extra) {
        // With a bound, a range probe of radius D (inclusive, so ties at
        // D still merge and lose or win on the object-id tie-break) costs
        // the border ring it touches; full kNN on a sparse remote region
        // would expand far past it. Without a bound the full kNN stands.
        auto result =
            have_bound
                ? shards_[s]->QueryRangeRouted(location, bound, t_now,
                                               deadline, pressure)
                : shards_[s]->QueryKnnRouted(location, k, t_now, deadline,
                                             pressure);
        if (!result.ok()) return result.status();
        per_shard.push_back(std::move(result).ValueOrDie());
        queried[s] = 1;
        selected.push_back(s);
      }
      merged = MergeTopK(per_shard, k);
    }
  }
  if (selected.size() == num_shards()) {
    stats_.full_fanouts.fetch_add(1, std::memory_order_relaxed);
  }
  return merged;
}

util::Result<std::vector<std::vector<core::KnnResultEntry>>>
ShardRouter::QueryKnnBatch(std::span<const roadnet::EdgePoint> locations,
                           uint32_t k, double t_now) {
  const util::Deadline deadline = admission_.DefaultDeadline();
  std::vector<std::vector<core::KnnResultEntry>> results(locations.size());
  GKNN_RETURN_NOT_OK(FanOutBatch(
      *query_pool_, admission_, deadline, locations.size(),
      [&](size_t i) -> util::Status {
        GKNN_ASSIGN_OR_RETURN(
            results[i], QueryKnnInternal(locations[i], k, t_now, deadline));
        return util::Status::OK();
      }));
  return results;
}

std::unique_ptr<roadnet::BoundedDijkstra> ShardRouter::AcquireDijkstra() {
  {
    util::lockdep::MutexLock lock(dijkstra_mu_);
    if (!dijkstra_pool_.empty()) {
      std::unique_ptr<roadnet::BoundedDijkstra> out =
          std::move(dijkstra_pool_.back());
      dijkstra_pool_.pop_back();
      return out;
    }
  }
  return std::make_unique<roadnet::BoundedDijkstra>(graph_);
}

void ShardRouter::ReleaseDijkstra(
    std::unique_ptr<roadnet::BoundedDijkstra> dijkstra) {
  // The deadline pointer belongs to the query that borrowed the searcher;
  // it must not survive into the pool.
  dijkstra->set_deadline(nullptr);
  util::lockdep::MutexLock lock(dijkstra_mu_);
  dijkstra_pool_.push_back(std::move(dijkstra));
}

RouterStats ShardRouter::router_stats() const {
  RouterStats out;
  out.queries = stats_.queries.load(std::memory_order_relaxed);
  const AdmissionController::Counts admission = admission_.counts();
  out.admitted_queries = admission.admitted;
  out.shed_queries = admission.shed;
  out.expired_queries = admission.expired;
  out.brownout_queries = admission.brownout;
  out.fanout_shards = stats_.fanout_shards.load(std::memory_order_relaxed);
  out.refine_shards = stats_.refine_shards.load(std::memory_order_relaxed);
  out.border_refinements =
      stats_.border_refinements.load(std::memory_order_relaxed);
  out.full_fanouts = stats_.full_fanouts.load(std::memory_order_relaxed);
  out.routed_updates =
      stats_.routed_updates.load(std::memory_order_relaxed);
  out.cross_shard_moves =
      stats_.cross_shard_moves.load(std::memory_order_relaxed);
  return out;
}

ServerStats ShardRouter::AggregateStats() const {
  ServerStats total;
  for (const auto& shard : shards_) {
    const ServerStats s = shard->stats();
    total.gpu_failures += s.gpu_failures;
    total.retries += s.retries;
    total.fallback_queries += s.fallback_queries;
    total.degraded_queries += s.degraded_queries;
    total.breaker_trips += s.breaker_trips;
    total.breaker_closes += s.breaker_closes;
    total.update_requeues += s.update_requeues;
    total.degraded = total.degraded || s.degraded;
    total.admitted_queries += s.admitted_queries;
    total.shed_queries += s.shed_queries;
    total.expired_queries += s.expired_queries;
    total.brownout_queries += s.brownout_queries;
  }
  return total;
}

uint64_t ShardRouter::pending_updates() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_updates();
  return total;
}

uint64_t ShardRouter::applied_updates() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->applied_updates();
  return total;
}

void ShardRouter::FoldRouterMetrics() {
  if (!obs::kEnabled) return;
  // Per-shard folds first (each takes that shard's writer lock and
  // releases it before the next — shard snapshots are mutually consistent
  // per shard, not across shards), then the relabelled copies and sums.
  std::map<std::string, double> sums;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const obs::RegistrySnapshot snapshot = shards_[s]->MetricsSnapshot();
    for (const auto& [name, value] : snapshot.counters) {
      router_registry_.GetGauge(WithShardLabel(name, s))
          ->Set(static_cast<double>(value));
      sums[name] += static_cast<double>(value);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      router_registry_.GetGauge(WithShardLabel(name, s))->Set(value);
      sums[name] += value;
    }
  }
  for (const auto& [name, value] : sums) {
    router_registry_.GetGauge(name)->Set(value);
  }
  const RouterStats rs = router_stats();
  auto set = [&](std::string_view name, double value) {
    router_registry_.GetGauge(name)->Set(value);
  };
  set("gknn_router_shards", static_cast<double>(num_shards()));
  set("gknn_router_queries", static_cast<double>(rs.queries));
  set("gknn_router_admitted_queries",
      static_cast<double>(rs.admitted_queries));
  set("gknn_router_shed_queries", static_cast<double>(rs.shed_queries));
  set("gknn_router_expired_queries",
      static_cast<double>(rs.expired_queries));
  set("gknn_router_brownout_queries",
      static_cast<double>(rs.brownout_queries));
  set("gknn_router_fanout_shards", static_cast<double>(rs.fanout_shards));
  set("gknn_router_refine_shards", static_cast<double>(rs.refine_shards));
  set("gknn_router_border_refinements",
      static_cast<double>(rs.border_refinements));
  set("gknn_router_full_fanouts", static_cast<double>(rs.full_fanouts));
  set("gknn_router_routed_updates",
      static_cast<double>(rs.routed_updates));
  set("gknn_router_cross_shard_moves",
      static_cast<double>(rs.cross_shard_moves));
}

obs::RegistrySnapshot ShardRouter::MetricsSnapshot() {
  FoldRouterMetrics();
  return router_registry_.Snapshot();
}

std::string ShardRouter::MetricsPrometheus() {
  FoldRouterMetrics();
  return router_registry_.RenderPrometheusText();
}

std::string ShardRouter::MetricsJson() {
  FoldRouterMetrics();
  return router_registry_.RenderJson();
}

}  // namespace gknn::server
