// Differential harness: one seeded update/query trace is replayed against
// three independent engines — G-Grid in kAuto mode (GPU pipeline), G-Grid
// in kCpuOnly mode (exact host path), and the brute-force oracle — and
// every query's answer must agree across all three (by distance multiset;
// ties may permute objects). Each full kNN answer is also checked against
// a range query at its kth distance, on both the GPU and the CPU path. On
// top of the answers, the kAuto index's observability layer is held to its
// invariants: phase times sum to at most the query total, counters only
// grow, and the latency histogram observes exactly once per query.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/brute_force.h"
#include "core/ggrid_index.h"
#include "gpusim/device.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/moving_objects.h"
#include "workload/queries.h"
#include "workload/synthetic_network.h"

namespace gknn {
namespace {

using core::ExecMode;
using core::KnnResultEntry;

std::vector<roadnet::Distance> Distances(
    const std::vector<KnnResultEntry>& entries) {
  std::vector<roadnet::Distance> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.distance);
  return out;
}

TEST(DifferentialKnnTest, AutoCpuAndOracleAgreeOnSeededTrace) {
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 400, .seed = 11}))
                   .ValueOrDie();

  gpusim::Device auto_device;
  gpusim::Device cpu_device;
  auto auto_index = std::move(core::GGridIndex::Build(
                                  &graph, core::GGridOptions{}, &auto_device))
                        .ValueOrDie();
  auto cpu_index = std::move(core::GGridIndex::Build(
                                 &graph, core::GGridOptions{}, &cpu_device))
                       .ValueOrDie();
  baselines::BruteForce oracle(&graph);

  workload::MovingObjectSimulator sim(&graph,
                                      {.num_objects = 250, .seed = 12});
  std::vector<workload::LocationUpdate> updates;
  sim.EmitFullSnapshot(&updates);
  auto ingest_all = [&](const std::vector<workload::LocationUpdate>& batch) {
    for (const auto& u : batch) {
      ASSERT_TRUE(auto_index->Ingest(u.object_id, u.position, u.time).ok());
      ASSERT_TRUE(cpu_index->Ingest(u.object_id, u.position, u.time).ok());
      oracle.Ingest(u.object_id, u.position, u.time);
    }
  };
  ingest_all(updates);

  const auto queries =
      workload::GenerateQueries(graph, {.num_queries = 25,
                                        .k = 8,
                                        .start_time = 0.5,
                                        .interval_seconds = 0.2,
                                        .seed = 13});

  uint64_t prev_queries_total = 0;
  uint64_t prev_cells_examined = 0;
  for (const auto& q : queries) {
    updates.clear();
    sim.AdvanceTo(q.time, &updates);
    ingest_all(updates);

    auto via_auto =
        auto_index->QueryKnn(q.location, q.k, q.time, nullptr,
                             ExecMode::kAuto);
    auto via_cpu =
        cpu_index->QueryKnn(q.location, q.k, q.time, nullptr,
                            ExecMode::kCpuOnly);
    auto via_oracle = oracle.QueryKnn(q.location, q.k, q.time);
    ASSERT_TRUE(via_auto.ok()) << via_auto.status().ToString();
    ASSERT_TRUE(via_cpu.ok()) << via_cpu.status().ToString();
    ASSERT_TRUE(via_oracle.ok()) << via_oracle.status().ToString();

    // Answers are sorted ascending and agree across all three engines.
    const auto auto_distances = Distances(*via_auto);
    EXPECT_TRUE(
        std::is_sorted(auto_distances.begin(), auto_distances.end()));
    EXPECT_EQ(auto_distances, Distances(*via_cpu))
        << "kAuto vs kCpuOnly diverged at t=" << q.time;
    EXPECT_EQ(auto_distances, Distances(*via_oracle))
        << "kAuto vs oracle diverged at t=" << q.time;

    // Cross-bound check: a range query at the kth distance d_k is the same
    // pipeline under the other bound, so its GPU and CPU paths agree entry
    // for entry and its first k entries are the kNN answer. It runs on the
    // kCpuOnly twin so the kAuto index's metrics count kNN queries only.
    if (via_auto->size() == q.k) {
      const roadnet::Distance d_k = via_auto->back().distance;
      auto range_gpu = cpu_index->QueryRange(q.location, d_k, q.time,
                                             nullptr, ExecMode::kGpuOnly);
      auto range_cpu = cpu_index->QueryRange(q.location, d_k, q.time,
                                             nullptr, ExecMode::kCpuOnly);
      ASSERT_TRUE(range_gpu.ok()) << range_gpu.status().ToString();
      ASSERT_TRUE(range_cpu.ok()) << range_cpu.status().ToString();
      EXPECT_EQ(*range_gpu, *range_cpu)
          << "range kGpuOnly vs kCpuOnly diverged at t=" << q.time;
      ASSERT_GE(range_gpu->size(), q.k);
      EXPECT_EQ(std::vector<KnnResultEntry>(range_gpu->begin(),
                                            range_gpu->begin() + q.k),
                *via_auto)
          << "range prefix vs kNN diverged at t=" << q.time;
    }

    if (obs::kEnabled) {
      // Counters are monotone and advance by exactly one query per query.
      const obs::RegistrySnapshot snapshot =
          auto_index->metrics().Snapshot();
      const uint64_t queries_total =
          snapshot.counters.at("gknn_queries_total");
      const uint64_t cells_examined =
          snapshot.counters.at("gknn_query_cells_examined_total");
      EXPECT_EQ(queries_total, prev_queries_total + 1);
      EXPECT_GE(cells_examined, prev_cells_examined);
      prev_queries_total = queries_total;
      prev_cells_examined = cells_examined;
    }
  }

  if (obs::kEnabled) {
    const obs::RegistrySnapshot snapshot = auto_index->metrics().Snapshot();
    // The latency histogram observes exactly once per finished query.
    EXPECT_EQ(snapshot.counters.at("gknn_queries_total"), queries.size());
    EXPECT_EQ(snapshot.histograms.at("gknn_query_seconds").count,
              queries.size());
    // Each phase histogram saw at most one observation per query.
    for (const auto& [name, data] : snapshot.histograms) {
      if (name.rfind("gknn_query_phase_seconds", 0) == 0) {
        EXPECT_LE(data.count, queries.size()) << name;
      }
    }
    // No query failed or fell back on a healthy device.
    EXPECT_EQ(snapshot.counters.at("gknn_query_errors_total"), 0u);
    EXPECT_EQ(snapshot.counters.at("gknn_query_fallbacks_total"), 0u);

    // Every trace record obeys the span-disjointness invariant.
    const auto traces = auto_index->tracer().RecentTraces();
    ASSERT_FALSE(traces.empty());
    double histogram_sum_check = 0;
    for (const auto& record : traces) {
      EXPECT_TRUE(record.ok);
      EXPECT_FALSE(record.cpu_fallback);
      EXPECT_LE(record.PhaseSum(), record.total_seconds + 1e-9)
          << "phases overlap in query " << record.query_id;
      EXPECT_EQ(record.k, 8u);
      histogram_sum_check += record.total_seconds;
    }
    // The 25-query trace fits the default ring, so the histogram's sum is
    // exactly the sum of the records' totals (up to ns rounding).
    EXPECT_EQ(traces.size(), queries.size());
    EXPECT_NEAR(snapshot.histograms.at("gknn_query_seconds").sum,
                histogram_sum_check, 1e-6 * queries.size());
  }
}

// The same trace replayed twice must produce byte-identical answers —
// the generators are fully seeded and the engine introduces no hidden
// nondeterminism on a healthy device.
TEST(DifferentialKnnTest, ReplayIsDeterministic) {
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 300, .seed = 21}))
                   .ValueOrDie();

  std::vector<std::vector<roadnet::Distance>> rounds[2];
  for (int round = 0; round < 2; ++round) {
    gpusim::Device device;
    auto index = std::move(core::GGridIndex::Build(
                               &graph, core::GGridOptions{}, &device))
                     .ValueOrDie();
    workload::MovingObjectSimulator sim(&graph,
                                        {.num_objects = 150, .seed = 22});
    std::vector<workload::LocationUpdate> updates;
    sim.EmitFullSnapshot(&updates);
    for (const auto& u : updates) {
      ASSERT_TRUE(index->Ingest(u.object_id, u.position, u.time).ok());
    }
    const auto queries =
        workload::GenerateQueries(graph, {.num_queries = 10,
                                          .k = 5,
                                          .start_time = 0.5,
                                          .interval_seconds = 0.25,
                                          .seed = 23});
    for (const auto& q : queries) {
      updates.clear();
      sim.AdvanceTo(q.time, &updates);
      for (const auto& u : updates) {
        ASSERT_TRUE(index->Ingest(u.object_id, u.position, u.time).ok());
      }
      auto result = index->QueryKnn(q.location, q.k, q.time);
      ASSERT_TRUE(result.ok());
      rounds[round].push_back(Distances(*result));
    }
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

}  // namespace
}  // namespace gknn
