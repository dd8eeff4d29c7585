// Range queries (extension beyond the paper): every object within network
// distance r, validated against a brute-force oracle over radii sweeps and
// moving workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/ggrid_index.h"
#include "util/logging.h"
#include "gpusim/device.h"
#include "roadnet/dijkstra.h"
#include "util/thread_pool.h"
#include "workload/moving_objects.h"
#include "workload/queries.h"
#include "workload/synthetic_network.h"

namespace gknn::core {
namespace {

using roadnet::Distance;
using roadnet::EdgePoint;
using roadnet::Graph;
using roadnet::kInfiniteDistance;

struct Fixture {
  explicit Fixture(uint32_t vertices, uint32_t objects, uint64_t seed)
      : graph(std::move(workload::GenerateSyntheticRoadNetwork(
                            {.num_vertices = vertices, .seed = seed}))
                  .ValueOrDie()),
        sim(&graph, {.num_objects = objects, .seed = seed + 1}) {
    index = std::move(GGridIndex::Build(&graph, GGridOptions{}, &device))
                .ValueOrDie();
    std::vector<workload::LocationUpdate> snapshot;
    sim.EmitFullSnapshot(&snapshot);
    for (const auto& u : snapshot) {
      GKNN_CHECK(index->Ingest(u.object_id, u.position, u.time).ok());
    }
  }

  /// Oracle: (object, distance) for every object within `radius`.
  std::map<ObjectId, Distance> Oracle(EdgePoint q, Distance radius) const {
    const auto dist = roadnet::ShortestPathsFromPoint(graph, q);
    std::map<ObjectId, Distance> in_range;
    for (uint32_t o = 0; o < sim.num_objects(); ++o) {
      const EdgePoint pos = sim.LastReportedPositionOf(o);
      Distance d = kInfiniteDistance;
      const auto& e = graph.edge(pos.edge);
      if (dist[e.source] != kInfiniteDistance) d = dist[e.source] + pos.offset;
      if (pos.edge == q.edge && pos.offset >= q.offset) {
        d = std::min<Distance>(d, pos.offset - q.offset);
      }
      if (d <= radius) in_range[o] = d;
    }
    return in_range;
  }

  void Check(EdgePoint q, Distance radius) {
    auto result = index->QueryRange(q, radius, 0.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto oracle = Oracle(q, radius);
    ASSERT_EQ(result->size(), oracle.size())
        << "edge=" << q.edge << " radius=" << radius;
    Distance last = 0;
    for (const auto& entry : *result) {
      auto it = oracle.find(entry.object);
      ASSERT_NE(it, oracle.end()) << "object " << entry.object;
      EXPECT_EQ(entry.distance, it->second) << "object " << entry.object;
      EXPECT_GE(entry.distance, last);  // ascending
      last = entry.distance;
    }
  }

  Graph graph;
  gpusim::Device device;
  workload::MovingObjectSimulator sim;
  std::unique_ptr<GGridIndex> index;
};

TEST(RangeQueryTest, MatchesOracleAcrossRadii) {
  Fixture fx(350, 50, 1);
  const auto queries = workload::GenerateQueries(
      fx.graph, {.num_queries = 5, .seed = 2});
  for (const auto& q : queries) {
    for (Distance radius : {0ull, 100ull, 500ull, 2000ull, 100000ull}) {
      fx.Check(q.location, radius);
    }
  }
}

TEST(RangeQueryTest, ZeroRadiusFindsOnlyColocatedObjects) {
  Fixture fx(200, 5, 3);
  ASSERT_TRUE(fx.index->Ingest(0, {7, 4}, 0.0).ok());
  auto result = fx.index->QueryRange({7, 4}, 0, 0.0);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& e : *result) {
    EXPECT_EQ(e.distance, 0u);
    if (e.object == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RangeQueryTest, HugeRadiusReturnsEveryReachableObject) {
  Fixture fx(300, 40, 5);
  auto result = fx.index->QueryRange({0, 0}, kInfiniteDistance - 1, 0.0);
  ASSERT_TRUE(result.ok());
  // Synthetic networks are strongly connected: everything is reachable.
  EXPECT_EQ(result->size(), 40u);
}

TEST(RangeQueryTest, WorksUnderMovement) {
  Fixture fx(300, 30, 7);
  std::vector<workload::LocationUpdate> updates;
  for (int step = 1; step <= 3; ++step) {
    updates.clear();
    fx.sim.AdvanceTo(step * 1.0, &updates);
    for (const auto& u : updates) {
      ASSERT_TRUE(fx.index->Ingest(u.object_id, u.position, u.time).ok());
    }
    auto result = fx.index->QueryRange({3, 0}, 1500, step * 1.0);
    ASSERT_TRUE(result.ok());
    const auto oracle = fx.Oracle({3, 0}, 1500);
    ASSERT_EQ(result->size(), oracle.size()) << "step " << step;
  }
}

// A range query reports its own device traffic: on a quiesced single
// device the stats' transfer fields equal the ledger's delta across the
// call, and refined_objects counts distinct objects refinement added.
TEST(RangeQueryTest, StatsMatchTheDeviceLedger) {
  Fixture fx(350, 50, 11);
  // A failed GPU attempt transfers too before the CPU fallback answers, so
  // the comparison needs a healthy device.
  ASSERT_TRUE(fx.device.SetFaultSpec("").ok());
  const auto before = fx.device.ledger().totals();
  KnnStats stats;
  auto result = fx.index->QueryRange({3, 0}, 2000, 0.0, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto after = fx.device.ledger().totals();
  ASSERT_FALSE(stats.cpu_fallback);
  EXPECT_GT(stats.h2d_bytes, 0u);
  EXPECT_GT(stats.d2h_bytes, 0u);
  EXPECT_EQ(stats.h2d_bytes, after.h2d_bytes - before.h2d_bytes);
  EXPECT_EQ(stats.d2h_bytes, after.d2h_bytes - before.d2h_bytes);
  EXPECT_DOUBLE_EQ(stats.transfer_seconds,
                   after.total_seconds() - before.total_seconds());
  EXPECT_LE(stats.refined_objects, result->size());
}

TEST(RangeQueryTest, RejectsInvalidLocation) {
  Fixture fx(200, 5, 9);
  EXPECT_TRUE(fx.index->QueryRange({fx.graph.num_edges(), 0}, 10, 0.0)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace gknn::core
