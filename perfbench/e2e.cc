// Front-door benchmark: drives server::ShardRouter from one client thread in
// a closed loop over a seeded MovingObjectSimulator fleet and reports the
// modeled service latency of the logical kNN query (see README.md).
//
// Everything here is measured from outside src/: the benchmark times calls
// into public functions and reads the counters the program already exposes
// (device clocks and ledgers, RouterStats/ServerStats, GGridIndex memory and
// counters, and each shard's metric registry).
//
//   perfbench_e2e --workload steady_fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/brute_force.h"
#include "core/options.h"
#include "gpusim/device.h"
#include "gpusim/device_config.h"
#include "obs/metrics.h"
#include "roadnet/graph.h"
#include "server/shard_router.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/moving_objects.h"

namespace {

using gknn::core::KnnResultEntry;
using gknn::roadnet::EdgePoint;
using gknn::server::ShardRouter;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------
//
// The host is shared and its speed drifts: a fixed CPU loop took from 33 to
// 60 ms in consecutive 5-second windows, and the median query latency of one
// seed moved by up to 30% between runs. The time metrics therefore scale
// every host-side duration to a reference host speed, read from a probe of
// fixed work that lives in this file. Modeled device time is not scaled. The
// unscaled values are printed next to the scaled ones.
//
// The probe's work is a bounded Dijkstra over a private copy of the road
// network, the kind of work the system's host side does. It is measured in
// bursts: a burst first reads every array the probe uses and runs a few
// untimed chunks, so it starts from the same cache state whatever the program
// touched before it (the whole working set, ≈1.5 MB, fits in one core's L2),
// and then times a run of chunks back to back. The probe thus reads the
// core's speed; the program's memory traffic moves it by a few percent at
// most (README.md).
class SpeedProbe {
 public:
  explicit SpeedProbe(const gknn::roadnet::Graph& graph) : rng_(kSeed) {
    offsets_.push_back(0);
    for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
      for (const gknn::roadnet::EdgeId e : graph.OutEdgeIds(v)) {
        targets_.push_back(graph.edge(e).target);
        weights_.push_back(graph.edge(e).weight);
      }
      offsets_.push_back(static_cast<uint32_t>(targets_.size()));
    }
    dist_.assign(graph.num_vertices(), 0);
    stamp_.assign(graph.num_vertices(), 0);
  }

  /// Runs one burst; returns the median time of its timed chunks, in
  /// seconds.
  double Burst() {
    uint64_t sum = 0;
    for (const auto* a : {&offsets_, &targets_, &weights_, &dist_, &stamp_}) {
      for (const uint32_t x : *a) sum += x;
    }
    sink_ = sum;
    for (int i = 0; i < kWarmChunks; ++i) Chunk();
    std::vector<double> chunks;
    for (int i = 0; i < kTimedChunks; ++i) chunks.push_back(Chunk());
    return Median(std::move(chunks));
  }

  /// Scale factor to the reference speed from a set of burst times.
  static double Factor(std::vector<double> bursts) {
    return kReferenceChunkSeconds / Median(std::move(bursts));
  }

 private:
  double Chunk() {
    const Clock::time_point start = Clock::now();
    ++epoch_;
    const auto source = static_cast<uint32_t>(rng_.NextBounded(dist_.size()));
    heap_.clear();
    heap_.push_back({0, source});
    stamp_[source] = epoch_;
    dist_[source] = 0;
    uint32_t settled = 0;
    while (!heap_.empty() && settled < kSettle) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (d != dist_[v]) continue;
      ++settled;
      for (uint32_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        const uint32_t t = targets_[i];
        const uint32_t nd = d + weights_[i];
        if (stamp_[t] != epoch_ || nd < dist_[t]) {
          stamp_[t] = epoch_;
          dist_[t] = nd;
          heap_.push_back({nd, t});
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        }
      }
    }
    return Seconds(start, Clock::now());
  }

  static constexpr uint32_t kSettle = 400;
  // Untimed chunks that open a burst. With the reads alone, a burst right
  // after a query read 3-6% slower than a second burst run right after it;
  // with these, 0.6-3.6% slower (README.md).
  static constexpr int kWarmChunks = 8;
  static constexpr int kTimedChunks = 8;
  static constexpr uint64_t kSeed = 0x5eed;
  // The reference speed: one chunk in 30 us, about this host's speed when
  // it is quiet, so scaled times read close to quiet-host microseconds.
  static constexpr double kReferenceChunkSeconds = 30e-6;

  gknn::util::Rng rng_;
  std::vector<uint32_t> offsets_, targets_, weights_;  // CSR copy
  std::vector<uint32_t> dist_, stamp_;
  std::vector<std::pair<uint32_t, uint32_t>> heap_;  // (distance, vertex)
  uint32_t epoch_ = 0;
  volatile uint64_t sink_ = 0;  // keeps the warming reads
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One named traffic mix. Every workload runs on the USA synthetic network
/// at 1/500 with a random-walk fleet and a single closed-loop client.
struct Workload {
  const char* name;
  uint32_t shards;
  uint32_t devices_per_shard;
  uint32_t max_inflight;  // router admission slots; 0 = admission off
  uint32_t objects;
  double frequency_hz;
  uint32_t k;
  double query_interval;  // logical seconds between queries
  double trim_period;     // logical seconds between TrimCaches sweeps; 0 = none
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"steady_fleet", 1, 1, 0, 2000, 1.0, 16, 0.25, 0},
    {"update_storm", 1, 1, 0, 8000, 2.0, 16, 0.25, 20.0},
    {"sharded_wide", 4, 2, 4, 2000, 0.25, 16, 0.1, 0},
};

constexpr const char* kDataset = "USA";
constexpr uint32_t kScale = 500;
// The road network is the dataset, not traffic: it is generated from a fixed
// seed so that runs at different --seed values see the same map, and the
// seed varies only the fleet and the query stream.
constexpr uint64_t kNetworkSeed = 1;
// The loop replays the fleet in episodes of fixed logical length, each with a
// fresh fleet drawn from the seed (every object re-reports at a new position
// when an episode starts). Without them the traffic is not stationary: on
// sharded_wide the share of full fan-outs doubled between the first and the
// third 100 logical seconds of one fleet, so a faster host, running further
// into it, would have read a worse tail. Episodes keep the traffic stationary,
// so the metrics do not depend on how many steps a run reaches.
constexpr double kEpisodeLogicalSeconds = 100.0;
// The first part of every episode is untimed: one t_delta of logical time,
// so the snapshot's messages have expired and every list holds steady-state
// traffic when timing resumes.
constexpr double kWarmupLogicalSeconds = 10.0;
// Timed queries are grouped into blocks of whole episodes, so every block
// holds the same traffic and the same number of sweeps. A block has at least
// this many queries, so that ten or more samples lie beyond its 99th
// percentile. Latency and throughput are taken per block and reported as the
// median over the run's blocks, which keeps a burst of host noise in one
// block out of the result.
constexpr uint64_t kMinBlockQueries = 1000;
constexpr uint64_t kMinBlocks = 3;
// Every kCheckEvery-th timed query is checked against the oracle.
constexpr uint64_t kCheckEvery = 16;
// A speed-probe burst runs after the first timed step of a block and after
// every kProbeEvery-th one from there.
constexpr size_t kProbeEvery = 10;

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t queries = 0;   // fixed timed-query count; 0 = run for --seconds
  std::string trace_out;  // span dump path (traced runs); empty = none
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--queries N] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
      continue;
    }
    if (arg == "--trace-out") {
      flags.trace_out = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) Usage("bad flag value");
    if (arg == "--seed") {
      flags.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      flags.seconds = number;
    } else if (arg == "--trace") {
      flags.trace = number != 0;
    } else if (arg == "--queries") {
      flags.queries = static_cast<uint64_t>(number);
    } else {
      Usage("unknown flag");
    }
  }
  if (flags.workload.empty()) Usage("--workload is required");
  return flags;
}

// ---------------------------------------------------------------------------
// Counters: cumulative quantities read from the program's public counters.
// ---------------------------------------------------------------------------

/// The only per-query read of the untraced run: the device atomics that
/// turn a call's wall time into its service time.
struct DeviceClocks {
  double clock = 0;     // Σ modeled device seconds (kernels + sync PCIe)
  double sim_wall = 0;  // Σ host seconds gpusim spent interpreting kernels
};

DeviceClocks ReadClocks(ShardRouter& router) {
  DeviceClocks out;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    auto& set = router.device_set(s);
    for (uint32_t d = 0; d < set.size(); ++d) {
      out.clock += set.device(d).ClockSeconds();
      out.sim_wall += set.device(d).sim_wall_seconds();
    }
  }
  return out;
}

/// Service time of one call: its wall time with the simulator's
/// interpretation cost replaced by the modeled device time it stands for.
double ServiceSeconds(double wall, const DeviceClocks& before,
                      const DeviceClocks& after) {
  return wall - (after.sim_wall - before.sim_wall) +
         (after.clock - before.clock);
}

// Every cumulative quantity a traced span carries as a delta.
enum Field : size_t {
  kClock,
  kSimWall,
  kLaunches,
  kH2d,
  kD2h,
  kBytes,
  kPcieSeconds,
  kKernelSeconds,
  kDrainSeconds,
  kQuerySeconds,
  kPhaseExpand,
  kPhaseClean,
  kPhaseSdist,
  kPhaseTopk,
  kPhaseUnresolved,
  kPhaseRefine,
  kPhaseFallback,
  kCleanCells,
  kCleanBatches,
  kCleanShipped,
  kCleanDeduped,
  kCellsExamined,
  kFanoutShards,
  kRefineShards,
  kBorderRefinements,
  kFullFanouts,
  kShed,
  kExpired,
  kUpdatesIngested,
  kTombstones,
  kLaunchMemset,
  kLaunchCollect,
  kLaunchXShuffle,
  kLaunchSDist,
  kLaunchFirstK,
  kLaunchUnresolved,
  kLaunchScan,
  kNumFields,
};

constexpr const char* kFieldNames[kNumFields] = {
    "device_s",        "sim_wall_s",      "launches",
    "h2d",             "d2h",             "bytes",
    "pcie_s",          "kernel_s",        "drain_s",
    "shard_query_s",   "expand_s",        "clean_s",
    "sdist_s",         "topk_s",          "unresolved_s",
    "refine_s",        "fallback_s",      "clean_cells",
    "clean_batches",   "clean_shipped",   "clean_deduped",
    "cells_examined",  "fanout_shards",   "refine_shards",
    "border_refines",  "full_fanouts",    "shed",
    "expired",         "updates",         "tombstones",
    "GPU_Memset_T",    "GPU_Collect",     "GPU_X_Shuffle",
    "GPU_SDist",       "GPU_First_k",     "GPU_Unresolved",
    "ExclusiveScan",
};

constexpr const char* kPhaseNames[] = {"expand", "clean", "sdist", "topk",
                                       "unresolved", "refine", "fallback"};
constexpr size_t kNumPhases = std::size(kPhaseNames);
static_assert(kPhaseExpand + kNumPhases == kPhaseFallback + 1);

/// Kernel label prefixes counted per group (GPU_First_k/* etc. fold into
/// one group each).
constexpr std::pair<const char*, Field> kKernelGroups[] = {
    {"GPU_Memset_T", kLaunchMemset},   {"GPU_Collect", kLaunchCollect},
    {"GPU_X_Shuffle", kLaunchXShuffle}, {"GPU_SDist", kLaunchSDist},
    {"GPU_First_k", kLaunchFirstK},    {"GPU_Unresolved", kLaunchUnresolved},
    {"ExclusiveScan", kLaunchScan},
};

using Sample = std::array<double, kNumFields>;

Sample Minus(const Sample& a, const Sample& b) {
  Sample out;
  for (size_t i = 0; i < kNumFields; ++i) out[i] = a[i] - b[i];
  return out;
}

void AddTo(Sample* acc, const Sample& d) {
  for (size_t i = 0; i < kNumFields; ++i) (*acc)[i] += d[i];
}

/// Registry handles of one shard, resolved once so a traced span reads only
/// atomics (plus the device's per-kernel map).
struct ShardHandles {
  gknn::obs::Histogram* drain = nullptr;
  gknn::obs::Histogram* query = nullptr;
  std::array<gknn::obs::Histogram*, kNumPhases> phase{};
  gknn::obs::Counter* clean_cells = nullptr;
  gknn::obs::Counter* batches_gpu = nullptr;
  gknn::obs::Counter* batches_cpu = nullptr;
  gknn::obs::Counter* shipped = nullptr;
  gknn::obs::Counter* deduped = nullptr;
  gknn::obs::Counter* cells_examined = nullptr;
};

class LayerProbe {
 public:
  explicit LayerProbe(ShardRouter* router) : router_(router) {
    for (uint32_t s = 0; s < router->num_shards(); ++s) {
      gknn::obs::MetricRegistry& reg = router->shard(s).index().metrics();
      ShardHandles h;
      h.drain = reg.GetHistogram("gknn_server_drain_seconds");
      h.query = reg.GetHistogram("gknn_query_seconds");
      for (size_t p = 0; p < kNumPhases; ++p) {
        h.phase[p] = reg.GetHistogram(
            std::string("gknn_query_phase_seconds{phase=\"") + kPhaseNames[p] +
            "\"}");
      }
      h.clean_cells = reg.GetCounter("gknn_clean_cells_total");
      h.batches_gpu = reg.GetCounter("gknn_clean_batches_total{path=\"gpu\"}");
      h.batches_cpu = reg.GetCounter("gknn_clean_batches_total{path=\"cpu\"}");
      h.shipped = reg.GetCounter("gknn_clean_messages_shipped_total");
      h.deduped = reg.GetCounter("gknn_clean_messages_deduped_total");
      h.cells_examined = reg.GetCounter("gknn_query_cells_examined_total");
      shards_.push_back(h);
    }
  }

  Sample Read() const {
    Sample v{};
    for (uint32_t s = 0; s < router_->num_shards(); ++s) {
      auto& set = router_->device_set(s);
      for (uint32_t d = 0; d < set.size(); ++d) {
        const gknn::gpusim::Device& dev = set.device(d);
        v[kClock] += dev.ClockSeconds();
        v[kSimWall] += dev.sim_wall_seconds();
        v[kLaunches] += static_cast<double>(dev.kernel_launches());
        const auto ledger = dev.ledger().totals();
        v[kH2d] += static_cast<double>(ledger.h2d_count);
        v[kD2h] += static_cast<double>(ledger.d2h_count);
        v[kBytes] += static_cast<double>(ledger.total_bytes());
        v[kPcieSeconds] += ledger.total_seconds();
        for (const auto& [label, totals] : dev.kernel_totals()) {
          v[kKernelSeconds] += totals.modeled_seconds;
          for (const auto& [prefix, field] : kKernelGroups) {
            if (std::string_view(label).starts_with(prefix)) {
              v[field] += static_cast<double>(totals.launches);
            }
          }
        }
      }
      const ShardHandles& h = shards_[s];
      v[kDrainSeconds] += h.drain->Sum();
      v[kQuerySeconds] += h.query->Sum();
      for (size_t p = 0; p < kNumPhases; ++p) {
        v[kPhaseExpand + p] += h.phase[p]->Sum();
      }
      v[kCleanCells] += static_cast<double>(h.clean_cells->Value());
      v[kCleanBatches] += static_cast<double>(h.batches_gpu->Value() +
                                              h.batches_cpu->Value());
      v[kCleanShipped] += static_cast<double>(h.shipped->Value());
      v[kCleanDeduped] += static_cast<double>(h.deduped->Value());
      v[kCellsExamined] += static_cast<double>(h.cells_examined->Value());
      const auto& counters = router_->shard(s).index().counters();
      v[kUpdatesIngested] += static_cast<double>(
          counters.updates_ingested.load(std::memory_order_relaxed));
      v[kTombstones] += static_cast<double>(
          counters.tombstones_written.load(std::memory_order_relaxed));
    }
    const gknn::server::RouterStats rs = router_->router_stats();
    v[kFanoutShards] = static_cast<double>(rs.fanout_shards);
    v[kRefineShards] = static_cast<double>(rs.refine_shards);
    v[kBorderRefinements] = static_cast<double>(rs.border_refinements);
    v[kFullFanouts] = static_cast<double>(rs.full_fanouts);
    v[kShed] = static_cast<double>(rs.shed_queries);
    v[kExpired] = static_cast<double>(rs.expired_queries);
    return v;
  }

 private:
  ShardRouter* router_;
  std::vector<ShardHandles> shards_;
};

// ---------------------------------------------------------------------------
// One system instance: network + router + fleet, primed and warm.
// ---------------------------------------------------------------------------

struct Instance {
  std::unique_ptr<gknn::roadnet::Graph> graph;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<gknn::workload::MovingObjectSimulator> fleet;
  std::vector<gknn::workload::LocationUpdate> priming;
  double setup_seconds = 0;  // wall
  double setup_speed = 1;    // host speed factor around the set-up
};

EdgePoint RandomLocation(const gknn::roadnet::Graph& graph,
                         gknn::util::Rng* rng) {
  EdgePoint p;
  p.edge = static_cast<gknn::roadnet::EdgeId>(
      rng->NextBounded(graph.num_edges()));
  p.offset = static_cast<uint32_t>(
      rng->NextBounded(graph.edge(p.edge).weight + 1));
  return p;
}

/// The benchmark's road network.
gknn::roadnet::Graph LoadNetwork() {
  auto spec = gknn::workload::FindDataset(kDataset);
  GKNN_CHECK(spec.ok()) << spec.status().ToString();
  auto graph = gknn::workload::InstantiateDataset(*spec, kScale, kNetworkSeed);
  GKNN_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).ValueOrDie();
}

/// The seed's independent streams: one fleet per episode, queries, warm
/// query.
uint64_t FleetSeed(uint64_t seed, uint64_t episode = 0) {
  return seed * 1000003 + 1 + episode * 0x9E3779B97F4A7C15ull;
}
uint64_t QuerySeed(uint64_t seed) { return seed * 1000003 + 2; }
uint64_t WarmSeed(uint64_t seed) { return seed * 1000003 + 3; }

/// Timed set-up: network instantiation + router/index build + fleet
/// priming + one warm query. Speed-probe bursts run just before and after.
std::unique_ptr<Instance> SetUp(const Workload& w, uint64_t seed,
                                SpeedProbe* speed) {
  constexpr int kProbeBursts = 4;
  std::vector<double> bursts;
  for (int i = 0; i < kProbeBursts; ++i) bursts.push_back(speed->Burst());
  auto inst = std::make_unique<Instance>();
  const Clock::time_point start = Clock::now();

  inst->graph = std::make_unique<gknn::roadnet::Graph>(LoadNetwork());

  gknn::server::ShardRouterOptions options;
  options.num_shards = w.shards;
  options.devices_per_shard = w.devices_per_shard;
  options.server.query_threads = 0;  // inline: one client, exact attribution
  options.server.max_inflight = w.max_inflight;
  // Device capacity scaled with the dataset, as the figure benches do; no
  // fault schedule and no hazard shadow memory, whatever the environment.
  options.device.memory_bytes = std::max<uint64_t>(
      1 << 20,
      static_cast<uint64_t>(0.9 * options.device.memory_bytes / kScale));
  options.device.faults.clear();
  options.device.hazard_check = false;
  auto router = ShardRouter::Create(inst->graph.get(),
                                    gknn::core::GGridOptions{}, options);
  GKNN_CHECK(router.ok()) << router.status().ToString();
  inst->router = std::move(router).ValueOrDie();

  inst->fleet = std::make_unique<gknn::workload::MovingObjectSimulator>(
      inst->graph.get(),
      gknn::workload::MovingObjectSimulator::Options{
          .num_objects = w.objects,
          .update_frequency_hz = w.frequency_hz,
          .seed = FleetSeed(seed)});
  inst->fleet->EmitFullSnapshot(&inst->priming);
  for (const auto& u : inst->priming) {
    inst->router->Report(u.object_id, u.position, u.time);
  }

  gknn::util::Rng warm_rng(WarmSeed(seed));
  auto warm = inst->router->QueryKnn(RandomLocation(*inst->graph, &warm_rng),
                                     w.k, inst->fleet->now());
  GKNN_CHECK(warm.ok()) << "warm query: " << warm.status().ToString();

  inst->setup_seconds = Seconds(start, Clock::now());
  for (int i = 0; i < kProbeBursts; ++i) bursts.push_back(speed->Burst());
  inst->setup_speed = SpeedProbe::Factor(std::move(bursts));
  return inst;
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// One traced call (kept in memory, written out when the run ends).
struct Span {
  uint64_t id;        // logical query id shared by the step's spans
  const char* name;   // "report" | "query" | "trim"
  double start;       // seconds since the window opened
  double wall;        // call wall seconds
  double service;     // wall − Δsim_wall + Δdevice clock
  uint64_t calls;     // Report calls in a report span; 1 otherwise
  uint64_t useful_shards = 0;  // query spans: shards owning a returned object
  Sample delta{};
};

/// What one timed step measured. Host parts are wall time minus the
/// simulator's interpretation time; device parts are modeled.
struct StepSample {
  double query_host = 0;
  double query_device = 0;
  double report = 0;     // the step's Report calls
  double trim_host = 0;  // the step's sweep, if any
  double trim_device = 0;
  double probe = 0;      // speed-probe burst after the step; 0 = none
  uint64_t updates = 0;
  bool trimmed = false;
  bool failed = false;
};

struct Block {
  std::vector<StepSample> steps;
};

/// A block's figures, optionally scaled to the reference host speed.
struct BlockStats {
  std::vector<double> latencies;  // service seconds per query
  double report = 0;
  double trim = 0;
  double updates = 0;
};

BlockStats Summarize(const Block& b, bool scaled) {
  // Each step's factor comes from the probe bursts of the steps around it,
  // so a slow stretch of the host is matched to the queries it slowed.
  constexpr size_t kWindow = 25;
  BlockStats out;
  const size_t n = b.steps.size();
  for (size_t i = 0; i < n; ++i) {
    double f = 1;
    if (scaled) {
      std::vector<double> bursts;
      for (size_t j = i > kWindow ? i - kWindow : 0;
           j < std::min(n, i + kWindow + 1); ++j) {
        if (b.steps[j].probe > 0) bursts.push_back(b.steps[j].probe);
      }
      f = SpeedProbe::Factor(std::move(bursts));
    }
    const StepSample& s = b.steps[i];
    out.latencies.push_back(s.query_host * f + s.query_device);
    out.report += s.report * f;
    out.trim += s.trim_host * f + s.trim_device;
    out.updates += static_cast<double>(s.updates);
  }
  return out;
}

struct LoopResult {
  std::vector<Block> blocks;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  double index_bytes = 0;  // Σ shards' index memory after the first block
  std::vector<Span> spans;  // traced runs only

  uint64_t queries() const {
    uint64_t n = 0;
    for (const Block& b : blocks) n += b.steps.size();
    return n;
  }
  uint64_t failed() const { return Count(&StepSample::failed); }
  uint64_t trims() const { return Count(&StepSample::trimmed); }

  /// The host speed factor over every probe burst of the run.
  double speed() const {
    std::vector<double> bursts;
    for (const Block& b : blocks) {
      for (const StepSample& s : b.steps) {
        if (s.probe > 0) bursts.push_back(s.probe);
      }
    }
    return SpeedProbe::Factor(std::move(bursts));
  }

 private:
  uint64_t Count(bool StepSample::*flag) const {
    uint64_t n = 0;
    for (const Block& b : blocks) {
      for (const StepSample& s : b.steps) n += s.*flag;
    }
    return n;
  }
};

double IndexBytes(ShardRouter& router) {
  double total = 0;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    total += static_cast<double>(router.shard(s).index().Memory().total());
  }
  return total;
}

uint64_t StepsOf(const Workload& w, double logical_seconds) {
  return static_cast<uint64_t>(std::llround(logical_seconds /
                                            w.query_interval));
}

class Loop {
 public:
  Loop(const Workload& w, uint64_t seed, Instance* inst, SpeedProbe* speed)
      : w_(w),
        seed_(seed),
        inst_(inst),
        speed_(speed),
        router_(*inst->router),
        oracle_(inst->graph.get()),
        query_rng_(QuerySeed(seed)),
        steps_per_episode_(StepsOf(w, kEpisodeLogicalSeconds)),
        warmup_steps_(StepsOf(w, kWarmupLogicalSeconds)),
        trim_every_steps_(w.trim_period > 0 ? StepsOf(w, w.trim_period) : 0),
        fleet_(inst->fleet.get()) {
    for (const auto& u : inst->priming) {
      oracle_.Ingest(u.object_id, u.position, u.time);
    }
  }

  /// Runs blocks of `block_queries` timed queries until `seconds` of wall
  /// time have passed and at least `min_blocks` blocks are done, or until
  /// `max_blocks` are. Each episode's warm-up steps run untimed.
  LoopResult Run(double seconds, uint64_t block_queries, uint64_t min_blocks,
                 uint64_t max_blocks, const LayerProbe* probe) {
    LoopResult result;
    window_start_ = Clock::now();
    while (result.blocks.size() < max_blocks &&
           (result.blocks.size() < min_blocks ||
            Seconds(window_start_, Clock::now()) < seconds)) {
      Block block;
      while (block.steps.size() < block_queries) {
        Step(&block, &result, probe);
      }
      result.blocks.push_back(std::move(block));
      if (result.blocks.size() == 1) result.index_bytes = IndexBytes(router_);
    }
    return result;
  }

 private:
  /// Replaces the fleet with the next episode's; its snapshot is reported
  /// with the first step of the episode.
  void NextEpisode() {
    ++episode_;
    owned_fleet_ = std::make_unique<gknn::workload::MovingObjectSimulator>(
        inst_->graph.get(),
        gknn::workload::MovingObjectSimulator::Options{
            .num_objects = w_.objects,
            .update_frequency_hz = w_.frequency_hz,
            .seed = FleetSeed(seed_, episode_)});
    fleet_ = owned_fleet_.get();
    offset_ = t_;
    episode_step_ = 0;
    fleet_->EmitFullSnapshot(&updates_);
  }

  void Step(Block* block, LoopResult* result, const LayerProbe* probe) {
    const uint64_t id = step_++;
    updates_.clear();
    if (episode_step_ == steps_per_episode_) NextEpisode();
    ++episode_step_;
    const double episode_t =
        static_cast<double>(episode_step_) * w_.query_interval;
    t_ = offset_ + episode_t;
    const bool timed = episode_step_ > warmup_steps_;
    StepSample sample;
    fleet_->AdvanceTo(episode_t, &updates_);
    // The fleet's clock restarts each episode; the index sees one timeline.
    for (auto& u : updates_) u.time += offset_;

    // Report every update emitted since the previous query.
    Sample before{};
    if (probe != nullptr) before = probe->Read();
    const Clock::time_point r0 = Clock::now();
    for (const auto& u : updates_) {
      router_.Report(u.object_id, u.position, u.time);
    }
    const Clock::time_point r1 = Clock::now();
    if (timed) {
      sample.report = Seconds(r0, r1);
      sample.updates = updates_.size();
      if (probe != nullptr) {
        result->spans.push_back({id, "report", Seconds(window_start_, r0),
                                 Seconds(r0, r1), Seconds(r0, r1),
                                 updates_.size(), 0,
                                 Minus(probe->Read(), before)});
      }
    }
    for (const auto& u : updates_) {
      oracle_.Ingest(u.object_id, u.position, u.time);
    }

    // One logical kNN query.
    const EdgePoint at = RandomLocation(*inst_->graph, &query_rng_);
    if (probe != nullptr) before = probe->Read();
    const DeviceClocks c0 = ReadClocks(router_);
    const Clock::time_point q0 = Clock::now();
    auto answer = router_.QueryKnn(at, w_.k, t_);
    const Clock::time_point q1 = Clock::now();
    const DeviceClocks c1 = ReadClocks(router_);
    const double wall = Seconds(q0, q1);
    const double service = ServiceSeconds(wall, c0, c1);

    if (!timed) {
      GKNN_CHECK(answer.ok()) << "warm-up query failed: "
                              << answer.status().ToString();
    } else {
      sample.query_host = wall - (c1.sim_wall - c0.sim_wall);
      sample.query_device = c1.clock - c0.clock;
      if (!answer.ok()) {
        sample.failed = true;
        GKNN_LOG(Warning) << "query " << id << ": "
                          << answer.status().ToString();
      } else if (timed_queries_++ % kCheckEvery == 0) {
        ++result->checked;
        auto want = oracle_.QueryKnn(at, w_.k, t_);
        if (!want.ok() || *want != *answer) {
          ++result->mismatches;
          GKNN_LOG(Warning) << "oracle mismatch at query " << id;
        }
      }
      if (probe != nullptr) {
        Span span{id, "query", Seconds(window_start_, q0), wall, service, 1,
                  0, Minus(probe->Read(), before)};
        if (answer.ok()) span.useful_shards = UsefulShards(*answer);
        result->spans.push_back(span);
      }
    }

    // Foreground maintenance sweep, as `gknn_cli trim` runs it.
    if (trim_every_steps_ > 0 && episode_step_ % trim_every_steps_ == 0) {
      if (probe != nullptr) before = probe->Read();
      const DeviceClocks d0 = ReadClocks(router_);
      const Clock::time_point m0 = Clock::now();
      for (uint32_t s = 0; s < router_.num_shards(); ++s) {
        const gknn::util::Status st = router_.shard(s).index().TrimCaches(t_);
        GKNN_CHECK(st.ok()) << "trim: " << st.ToString();
      }
      const Clock::time_point m1 = Clock::now();
      const DeviceClocks d1 = ReadClocks(router_);
      if (timed) {
        sample.trimmed = true;
        sample.trim_host = Seconds(m0, m1) - (d1.sim_wall - d0.sim_wall);
        sample.trim_device = d1.clock - d0.clock;
        if (probe != nullptr) {
          result->spans.push_back({id, "trim", Seconds(window_start_, m0),
                                   Seconds(m0, m1),
                                   sample.trim_host + sample.trim_device, 1,
                                   0, Minus(probe->Read(), before)});
        }
      }
    }

    if (timed) {
      if (block->steps.size() % kProbeEvery == 0) {
        sample.probe = speed_->Burst();
      }
      block->steps.push_back(sample);
    }
  }

  /// Distinct shards owning at least one returned object (by the position
  /// the object last reported, which is where the router placed it).
  uint64_t UsefulShards(const std::vector<KnnResultEntry>& answer) const {
    std::vector<bool> seen(router_.num_shards(), false);
    uint64_t n = 0;
    for (const KnnResultEntry& e : answer) {
      const uint32_t s =
          router_.ShardOfPoint(fleet_->LastReportedPositionOf(e.object));
      if (!seen[s]) {
        seen[s] = true;
        ++n;
      }
    }
    return n;
  }

  const Workload& w_;
  uint64_t seed_;
  Instance* inst_;
  SpeedProbe* speed_;
  ShardRouter& router_;
  gknn::baselines::BruteForce oracle_;
  gknn::util::Rng query_rng_;
  uint64_t steps_per_episode_;
  uint64_t warmup_steps_;
  uint64_t trim_every_steps_;  // 0 = no sweeps
  gknn::workload::MovingObjectSimulator* fleet_;  // the current episode's
  std::unique_ptr<gknn::workload::MovingObjectSimulator> owned_fleet_;
  uint64_t episode_ = 0;
  uint64_t episode_step_ = 0;
  double offset_ = 0;  // logical time at which the episode started
  double t_ = 0;       // logical time of the index
  uint64_t step_ = 0;
  uint64_t timed_queries_ = 0;
  Clock::time_point window_start_;
  std::vector<gknn::workload::LocationUpdate> updates_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// The latency and rate metrics. The median and the rates are medians over
/// blocks of per-block values; the 99th percentile is taken over every
/// query of the run, because one block holds only the ten samples beyond it
/// that the percentile needs.
struct Timing {
  double p50 = 0;
  double p99 = 0;
  double qps = 0;
  double updates_per_s = 0;
};

Timing TimingOf(const LoopResult& r, bool scaled) {
  std::vector<double> p50, qps, ups, all;
  for (const Block& b : r.blocks) {
    const BlockStats s = Summarize(b, scaled);
    const double service = Sum(s.latencies);
    p50.push_back(Median(s.latencies));
    qps.push_back(static_cast<double>(s.latencies.size()) / service);
    // Updates per second of the work they cost: reporting them, the
    // queries that drain them, and the sweeps.
    ups.push_back(s.updates / (s.report + service + s.trim));
    all.insert(all.end(), s.latencies.begin(), s.latencies.end());
  }
  return {Median(p50), Quantile(all, 0.99), Median(qps), Median(ups)};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintRunHeader(const Workload& w, const Flags& flags,
                    const LoopResult& r) {
  const uint64_t per_block =
      r.blocks.empty() ? 0 : r.blocks.front().steps.size();
  std::printf(
      "workload %s  seed %llu  |O|=%u f=%gHz k=%u interval=%gs shards=%ux%u "
      "devices\n"
      "timed queries %llu in %zu blocks of %llu (the p99 has %llu samples "
      "beyond it), failed %llu, oracle-checked %llu, mismatches %llu, "
      "sweeps %llu\n"
      "service latency = QueryKnn wall time - d(sim_wall) + d(device clock); "
      "wall time from steady_clock; latency and rates are medians over "
      "blocks (p99 over all queries); host time scaled to the reference "
      "host speed\n",
      w.name, static_cast<unsigned long long>(flags.seed), w.objects,
      w.frequency_hz, w.k, w.query_interval, w.shards, w.devices_per_shard,
      static_cast<unsigned long long>(r.queries()), r.blocks.size(),
      static_cast<unsigned long long>(per_block),
      static_cast<unsigned long long>(r.queries() / 100),
      static_cast<unsigned long long>(r.failed()),
      static_cast<unsigned long long>(r.checked),
      static_cast<unsigned long long>(r.mismatches),
      static_cast<unsigned long long>(r.trims()));
}

bool Correct(const LoopResult& r) {
  return r.failed() == 0 && r.mismatches == 0 && r.checked > 0;
}

/// The shape of a run: whole-episode blocks of at least kMinBlockQueries
/// timed queries and five set-ups, or, for a smoke run (--queries), one block
/// of exactly that many queries and one set-up.
struct Plan {
  uint64_t block_queries;
  uint64_t min_blocks;
  uint64_t max_blocks;
  uint32_t setups;
};

Plan PlanRun(const Flags& flags, const Workload& w) {
  if (flags.queries > 0) return {flags.queries, 1, 1, 1};
  const uint64_t per_episode = StepsOf(w, kEpisodeLogicalSeconds) -
                               StepsOf(w, kWarmupLogicalSeconds);
  const uint64_t block_queries =
      (kMinBlockQueries + per_episode - 1) / per_episode * per_episode;
  return {block_queries, kMinBlocks, UINT64_MAX, 5};
}

int RunEndToEnd(const Workload& w, const Flags& flags, SpeedProbe* speed) {
  const Plan plan = PlanRun(flags, w);
  std::vector<double> setups, raw_setups, setup_speeds;
  std::unique_ptr<Instance> inst;
  for (uint32_t i = 0; i < plan.setups; ++i) {
    inst.reset();  // one instance alive at a time
    inst = SetUp(w, flags.seed, speed);
    raw_setups.push_back(inst->setup_seconds);
    setups.push_back(inst->setup_seconds * inst->setup_speed);
    setup_speeds.push_back(inst->setup_speed);
  }
  Loop loop(w, flags.seed, inst.get(), speed);
  const LoopResult r = loop.Run(flags.seconds, plan.block_queries,
                                plan.min_blocks, plan.max_blocks, nullptr);

  const double failed_ratio = static_cast<double>(r.failed()) /
                              static_cast<double>(r.queries());
  const Timing t = TimingOf(r, /*scaled=*/true);
  const Timing raw = TimingOf(r, /*scaled=*/false);
  const std::vector<Metric> metrics = {
      {"knn_p50_us", t.p50 * 1e6, "us"},
      {"knn_p99_us", t.p99 * 1e6, "us"},
      {"knn_qps", t.qps, "1/s"},
      {"updates_per_s", t.updates_per_s, "1/s"},
      {"index_mb", r.index_bytes / 1e6, "MB"},
      {"setup_s", Median(setups), "s"},
      {"ok_query_ratio", 1 - failed_ratio, "ratio"},
  };
  PrintRunHeader(w, flags, r);
  std::printf("setup_s is the median of %zu set-ups\n", setups.size());
  std::printf("host speed factor: %.4f in set-up, %.4f in the loop\n",
              Median(setup_speeds), r.speed());
  PrintTable("end-to-end metrics", metrics);
  PrintTable("the same, host time unscaled (not gated)",
             {{"raw.knn_p50_us", raw.p50 * 1e6, "us"},
              {"raw.knn_p99_us", raw.p99 * 1e6, "us"},
              {"raw.knn_qps", raw.qps, "1/s"},
              {"raw.updates_per_s", raw.updates_per_s, "1/s"},
              {"raw.setup_s", Median(raw_setups), "s"},
              {"failed_query_ratio", failed_ratio, "ratio"}});
  PrintResultLine(Correct(r), r.queries(), r.failed(), metrics);
  return 0;
}

/// Writes every span, one JSON object per line. Per-layer child spans are
/// carried as the deltas of the span that encloses them (their durations
/// come from the program's histograms; their start times are not exposed).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %llu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"wall_s\": %.9f, \"service_s\": %.9f, \"calls\": %llu, "
                 "\"useful_shards\": %llu",
                 static_cast<unsigned long long>(s.id), s.name, s.start,
                 s.wall, s.service, static_cast<unsigned long long>(s.calls),
                 static_cast<unsigned long long>(s.useful_shards));
    for (size_t i = 0; i < kNumFields; ++i) {
      if (s.delta[i] != 0) {
        std::fprintf(f, ", \"%s\": %.12g", kFieldNames[i], s.delta[i]);
      }
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

double PhaseSum(const Sample& s) {
  double sum = 0;
  for (size_t p = 0; p < kNumPhases; ++p) sum += s[kPhaseExpand + p];
  return sum;
}

int RunTraced(const Workload& w, const Flags& flags, SpeedProbe* speed) {
  // Untraced reference window over the same seed and steps: nothing is read
  // per call but the device clocks.
  const Plan plan = PlanRun(flags, w);
  double untraced_p50 = 0;
  size_t blocks = 0;
  {
    auto inst = SetUp(w, flags.seed, speed);
    Loop loop(w, flags.seed, inst.get(), speed);
    const LoopResult r = loop.Run(flags.seconds / 2, plan.block_queries, 1,
                                  plan.max_blocks, nullptr);
    untraced_p50 = TimingOf(r, /*scaled=*/true).p50;
    blocks = r.blocks.size();
  }

  auto inst = SetUp(w, flags.seed, speed);
  ShardRouter& router = *inst->router;
  Loop loop(w, flags.seed, inst.get(), speed);
  const LayerProbe probe(&router);
  const LoopResult r = loop.Run(0, plan.block_queries, blocks, blocks, &probe);

  // Aggregate the spans. A query span's children are the shards' drains and
  // engine queries, which must fit in the router call, and the engine
  // phases, which must fit in the engine queries. Histogram sums are kept
  // in whole nanoseconds per observation, hence the tolerance.
  constexpr double kTolerance = 1e-6;
  Sample q{};
  double query_wall = 0, report_wall = 0, trim_service = 0;
  uint64_t report_calls = 0, useful = 0, bad_spans = 0;
  double worst_excess = -1;
  for (const Span& s : r.spans) {
    if (std::strcmp(s.name, "query") == 0) {
      AddTo(&q, s.delta);
      query_wall += s.wall;
      useful += s.useful_shards;
      const double excess =
          std::max(s.delta[kDrainSeconds] + s.delta[kQuerySeconds] - s.wall,
                   PhaseSum(s.delta) - s.delta[kQuerySeconds]);
      if (excess > kTolerance) ++bad_spans;
      worst_excess = std::max(worst_excess, excess);
    } else if (std::strcmp(s.name, "report") == 0) {
      report_wall += s.wall;
      report_calls += s.calls;
    } else {
      trim_service += s.service;
    }
  }
  const double n = static_cast<double>(r.queries());
  const double shards_queried = q[kFanoutShards] + q[kRefineShards];
  const double traced_p50 = TimingOf(r, /*scaled=*/true).p50;
  double peak_bytes = 0, cached = 0;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    cached += static_cast<double>(router.shard(s).index().cached_messages());
    auto& set = router.device_set(s);
    for (uint32_t d = 0; d < set.size(); ++d) {
      peak_bytes += static_cast<double>(set.device(d).peak_bytes());
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double us = 1e6 / n;
  const double trims = static_cast<double>(r.trims());

  std::vector<Metric> metrics = {
      {"server.report_ns", ratio(report_wall, report_calls) * 1e9, "ns"},
      {"server.drain_us", q[kDrainSeconds] * us, "us"},
      {"server.fanout_shards", shards_queried / n, "shards"},
      {"server.border_refine_ratio", q[kBorderRefinements] / n, "ratio"},
      // The router counts every query of a one-shard router as a full
      // fan-out; the ratio means something only with more than one shard.
      {"server.full_fanout_ratio",
       router.num_shards() > 1 ? q[kFullFanouts] / n : 0.0, "ratio"},
      {"server.useful_shard_ratio",
       ratio(static_cast<double>(useful), shards_queried), "ratio"},
      {"server.router_self_us",
       (query_wall - q[kQuerySeconds] - q[kDrainSeconds]) * us, "us"},
      {"server.shed", q[kShed], "count"},
      {"server.expired", q[kExpired], "count"},
      {"index.tombstone_ratio", ratio(q[kTombstones], q[kUpdatesIngested]),
       "ratio"},
      {"index.cached_messages", cached, "count"},
      {"index.trim_ms", ratio(trim_service, trims) * 1e3, "ms"},
      {"cleaner.cells", q[kCleanCells] / n, "count"},
      {"cleaner.batches", q[kCleanBatches] / n, "count"},
      {"cleaner.shipped", q[kCleanShipped] / n, "count"},
      {"cleaner.dedup_ratio", ratio(q[kCleanDeduped], q[kCleanShipped]),
       "ratio"},
      {"cleaner.wall_us", q[kPhaseClean] * us, "us"},
      {"engine.cells_examined", q[kCellsExamined] / n, "count"},
      {"engine.expand_us", q[kPhaseExpand] * us, "us"},
      {"engine.sdist_us", q[kPhaseSdist] * us, "us"},
      {"engine.topk_us", q[kPhaseTopk] * us, "us"},
      {"engine.unresolved_us", q[kPhaseUnresolved] * us, "us"},
      {"engine.refine_us", q[kPhaseRefine] * us, "us"},
      {"gpusim.launches", q[kLaunches] / n, "count"},
      {"gpusim.h2d", q[kH2d] / n, "count"},
      {"gpusim.d2h", q[kD2h] / n, "count"},
      {"gpusim.bytes", q[kBytes] / n, "B"},
  };
  for (const auto& [prefix, field] : kKernelGroups) {
    metrics.push_back(
        {std::string("gpusim.launches.") + prefix, q[field] / n, "count"});
  }
  const std::vector<Metric> tail = {
      {"gpusim.kernel_us", q[kKernelSeconds] * us, "us"},
      {"gpusim.pcie_us", q[kPcieSeconds] * us, "us"},
      {"gpusim.device_us", q[kClock] * us, "us"},
      {"gpusim.peak_mb", peak_bytes / 1e6, "MB"},
      {"gpusim.sim_overhead_us", q[kSimWall] * us, "us"},
      {"obs.trace_overhead_pct",
       ratio(traced_p50 - untraced_p50, untraced_p50) * 100, "%"},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());

  PrintRunHeader(w, flags, r);
  std::printf("traced window: the untraced reference window made the same "
              "steps; per-layer values are per query unless marked\n");

  // Per-layer self time, µs per query. Wall spans include the simulator's
  // interpretation time wherever gpusim runs inside them.
  auto row = [&](const std::string& label, double seconds) {
    std::printf("  %-42s %12.2f\n", label.c_str(), seconds * us);
  };
  std::printf("\nper-layer self time (us/query; wall time of the traced "
              "run)\n");
  row("QueryKnn call (router, enclosing)", query_wall);
  row("  server.router self (remainder)",
      query_wall - q[kQuerySeconds] - q[kDrainSeconds]);
  row("  server.drain (inbox -> Ingest)", q[kDrainSeconds]);
  row("  shard engine queries (gknn_query_seconds)", q[kQuerySeconds]);
  row("    cleaner.clean", q[kPhaseClean]);
  for (size_t p = 0; p < kNumPhases; ++p) {
    if (kPhaseExpand + p == kPhaseClean) continue;
    row(std::string("    engine.") + kPhaseNames[p], q[kPhaseExpand + p]);
  }
  row("    engine glue (remainder)", q[kQuerySeconds] - PhaseSum(q));
  row("  of which gpusim interpretation", q[kSimWall]);
  row("modeled device time (not wall)", q[kClock]);
  std::printf("span check: %llu of %llu query spans have children exceeding "
              "their parent by > 1 us (largest excess %.3f us; negative = "
              "room left)\n",
              static_cast<unsigned long long>(bad_spans),
              static_cast<unsigned long long>(r.queries()),
              worst_excess * 1e6);
  std::printf("report spans: %llu calls, %.2f ns/call; sweeps: %llu, "
              "%.3f ms service each\n",
              static_cast<unsigned long long>(report_calls),
              ratio(report_wall, report_calls) * 1e9,
              static_cast<unsigned long long>(r.trims()),
              ratio(trim_service, trims) * 1e3);
  std::printf("tracing overhead: scaled p50 %.2f us traced vs %.2f us "
              "untraced\n",
              traced_p50 * 1e6, untraced_p50 * 1e6);
  PrintTable("per-layer metrics", metrics);

  bool written = true;
  if (!flags.trace_out.empty()) {
    written = WriteSpans(flags.trace_out, r.spans);
    if (!written) {
      GKNN_LOG(Warning) << "cannot write spans to " << flags.trace_out;
    }
  }
  PrintResultLine(Correct(r) && bad_spans == 0 && written, r.queries(),
                  r.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  gknn::util::SetLogLevel(gknn::util::LogLevel::kWarning);
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) {
      SpeedProbe speed(LoadNetwork());
      return flags.trace ? RunTraced(w, flags, &speed)
                         : RunEndToEnd(w, flags, &speed);
    }
  }
  Usage("unknown workload");
}
