// Ring sizing from per-cell object counts, and the one-batch clean it
// enables (paper Alg. 4 lines 1-4).
//
// The index keeps an eager count of live objects per cell next to the
// object table. The kNN engine grows its candidate rings from those counts
// until they predict rho*k objects and cleans every new cell in a single
// MessageCleaner batch. These tests pin:
//  - the counts equal a tally over the object table through ingests,
//    cross-cell moves, removals and a snapshot round-trip;
//  - under the sender contract the engine examines exactly the cells a
//    ring count over the object table predicts, answers exactly, and runs
//    at most one GPU clean batch per query;
//  - a query makes one device round-trip for cleaning (one GPU_Memset_T,
//    one GPU_Collect, one chunked upload of the shipped buckets);
//  - when objects stop reporting (counts over-predict), the continuation
//    through further batches still gives exact answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/brute_force.h"
#include "core/ggrid_index.h"
#include "gpusim/device.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/moving_objects.h"
#include "workload/queries.h"
#include "workload/synthetic_network.h"

namespace gknn::core {
namespace {

using roadnet::EdgePoint;

/// Live objects per cell, tallied from the object table alone.
std::vector<uint32_t> TallyObjectTable(const GGridIndex& index) {
  std::vector<uint32_t> tally(index.grid().num_cells(), 0);
  for (const auto& [object, entry] : index.object_table()) {
    (void)object;
    ++tally[entry.cell];
  }
  return tally;
}

/// The number of cells a query at `q` must examine under the sender
/// contract: the query cell, the query edge's target cell and the query
/// cell's neighbours, grown ring by ring until the object table places at
/// least rho*k objects in them (or the grid is covered).
uint32_t RingCellsByObjectTable(const GGridIndex& index, EdgePoint q,
                                uint32_t k) {
  const GraphGrid& grid = index.grid();
  const std::vector<uint32_t> tally = TallyObjectTable(index);
  std::vector<char> in_ring(grid.num_cells(), 0);
  std::vector<CellId> cells;
  auto add = [&](CellId c) {
    if (!in_ring[c]) {
      in_ring[c] = 1;
      cells.push_back(c);
    }
  };
  const CellId query_cell = grid.CellOfEdge(q.edge);
  add(query_cell);
  add(grid.CellOfVertex(grid.graph().edge(q.edge).target));
  for (CellId nb : grid.NeighborCells(query_cell)) add(nb);
  double objects = 0;
  for (CellId c : cells) objects += tally[c];
  size_t frontier = 0;
  while (objects < index.options().rho * k) {
    const size_t before = cells.size();
    for (size_t i = frontier; i < before; ++i) {
      for (CellId nb : grid.NeighborCells(cells[i])) add(nb);
    }
    if (cells.size() == before) break;
    frontier = before;
    for (size_t i = before; i < cells.size(); ++i) objects += tally[cells[i]];
  }
  return static_cast<uint32_t>(cells.size());
}

uint64_t KernelLaunches(const gpusim::Device& device, const char* kernel) {
  const auto totals = device.kernel_totals();
  auto it = totals.find(kernel);
  return it == totals.end() ? 0 : it->second.launches;
}

uint64_t CounterValue(GGridIndex& index, const char* name) {
  return index.metrics().GetCounter(name)->Value();
}

void ExpectSameAnswer(const std::vector<KnnResultEntry>& got,
                      const std::vector<KnnResultEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].object, want[i].object) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

TEST(RingSizingTest, CellCountsTrackTheObjectTable) {
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 500, .seed = 31}))
                   .ValueOrDie();
  gpusim::Device device;
  auto index =
      std::move(GGridIndex::Build(&graph, GGridOptions{}, &device))
          .ValueOrDie();
  workload::MovingObjectSimulator sim(&graph,
                                      {.num_objects = 150, .seed = 32});
  std::vector<workload::LocationUpdate> updates;
  sim.EmitFullSnapshot(&updates);

  util::Rng rng(33);
  std::unordered_set<uint32_t> removed;
  uint64_t cross_cell_moves = 0;
  double t = 0;
  for (int step = 0; step < 40; ++step) {
    for (const auto& u : updates) {
      if (removed.count(u.object_id) > 0) continue;
      const CellId before = index->object_table().CellOf(u.object_id);
      ASSERT_TRUE(index->Ingest(u.object_id, u.position, u.time).ok());
      const CellId after = index->object_table().CellOf(u.object_id);
      if (before != kInvalidCell && before != after) ++cross_cell_moves;
    }
    // Take a few objects off duty, and bring earlier ones back.
    for (int r = 0; r < 3; ++r) {
      const uint32_t o = static_cast<uint32_t>(rng.NextBounded(150));
      ASSERT_TRUE(index->Remove(o, t).ok());
      removed.insert(o);
    }
    if (step % 5 == 4) {
      for (uint32_t o : removed) {
        ASSERT_TRUE(index->Ingest(o, sim.PositionOf(o), t).ok());
      }
      removed.clear();
    }
    ASSERT_EQ(index->cell_object_counts(), TallyObjectTable(*index))
        << "step " << step;
    t += 0.5;
    updates.clear();
    sim.AdvanceTo(t, &updates);
  }
  EXPECT_GT(cross_cell_moves, 0u);
  // Removing an unknown or already removed object changes nothing.
  ASSERT_TRUE(index->Remove(1u << 30, t).ok());
  EXPECT_EQ(index->cell_object_counts(), TallyObjectTable(*index));
  // The counts are part of the index's support structures.
  EXPECT_GE(index->Memory().support,
            index->cell_object_counts().size() * sizeof(uint32_t));

  const std::string path =
      (std::filesystem::temp_directory_path() / "gknn_ring_sizing_snap.txt")
          .string();
  ASSERT_TRUE(index->SaveSnapshot(path, t).ok());
  gpusim::Device device2;
  auto restored =
      std::move(GGridIndex::Build(&graph, GGridOptions{}, &device2))
          .ValueOrDie();
  ASSERT_TRUE(restored->LoadSnapshot(path).ok());
  std::filesystem::remove(path);
  EXPECT_EQ(restored->cell_object_counts(), TallyObjectTable(*restored));
  EXPECT_EQ(restored->cell_object_counts(), index->cell_object_counts());
}

/// A fleet that reports every second (the sender contract, t_Delta = 10 s)
/// and a stream of queries between its reports.
struct ContractFleet {
  ContractFleet()
      : graph(std::move(workload::GenerateSyntheticRoadNetwork(
                            {.num_vertices = 2000, .seed = 41}))
                  .ValueOrDie()),
        sim(&graph, {.num_objects = 600, .seed = 42}),
        oracle(&graph) {
    index = std::move(GGridIndex::Build(&graph, GGridOptions{}, &device))
                .ValueOrDie();
    std::vector<workload::LocationUpdate> updates;
    sim.EmitFullSnapshot(&updates);
    Ingest(updates);
  }

  void Ingest(const std::vector<workload::LocationUpdate>& updates) {
    for (const auto& u : updates) {
      GKNN_CHECK(index->Ingest(u.object_id, u.position, u.time).ok());
      oracle.Ingest(u.object_id, u.position, u.time);
    }
  }

  std::vector<workload::KnnQuery> Queries(uint32_t n, uint32_t k) const {
    return workload::GenerateQueries(graph, {.num_queries = n,
                                             .k = k,
                                             .start_time = 0.5,
                                             .interval_seconds = 0.5,
                                             .seed = 43});
  }

  roadnet::Graph graph;
  gpusim::Device device;
  std::unique_ptr<GGridIndex> index;
  workload::MovingObjectSimulator sim;
  baselines::BruteForce oracle;
};

TEST(RingSizingTest, OneCleanBatchExaminesTheCountedRings) {
  if (!obs::kEnabled) GTEST_SKIP() << "needs the metrics registry";
  ContractFleet fleet;
  GGridIndex& index = *fleet.index;
  uint32_t multi_ring_queries = 0;
  for (const workload::KnnQuery& q : fleet.Queries(40, 8)) {
    std::vector<workload::LocationUpdate> updates;
    fleet.sim.AdvanceTo(q.time, &updates);
    fleet.Ingest(updates);

    const uint32_t expected_cells =
        RingCellsByObjectTable(index, q.location, q.k);
    const uint64_t batches_before =
        CounterValue(index, "gknn_clean_batches_total{path=\"gpu\"}");
    KnnStats stats;
    auto got = index.QueryKnn(q.location, q.k, q.time, &stats,
                              ExecMode::kGpuOnly);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(stats.cells_examined, expected_cells);
    EXPECT_LE(CounterValue(index, "gknn_clean_batches_total{path=\"gpu\"}") -
                  batches_before,
              1u);
    if (stats.expansion_rounds > 0) ++multi_ring_queries;
    auto want = fleet.oracle.QueryKnn(q.location, q.k, q.time);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(*got, *want);
  }
  // The fleet is sparse enough that most queries grow rings: the single
  // batch must cover more than the initial region.
  EXPECT_GT(multi_ring_queries, 20u);
}

TEST(RingSizingTest, OneCleanRoundTripPerQuery) {
  if (!obs::kEnabled) GTEST_SKIP() << "needs the metrics registry";
  ContractFleet fleet;
  GGridIndex& index = *fleet.index;
  gpusim::Device& device = fleet.device;
  const uint32_t chunk = index.options().transfer_chunk_buckets;
  uint64_t shipping_queries = 0;
  for (const workload::KnnQuery& q : fleet.Queries(40, 8)) {
    std::vector<workload::LocationUpdate> updates;
    fleet.sim.AdvanceTo(q.time, &updates);
    fleet.Ingest(updates);

    const uint64_t memset_before = KernelLaunches(device, "GPU_Memset_T");
    const uint64_t collect_before = KernelLaunches(device, "GPU_Collect");
    const uint64_t h2d_before = device.ledger().totals().h2d_count;
    const uint64_t buckets_before =
        CounterValue(index, "gknn_clean_buckets_shipped_total");
    ASSERT_TRUE(
        index.QueryKnn(q.location, q.k, q.time, nullptr, ExecMode::kGpuOnly)
            .ok());
    const uint64_t buckets =
        CounterValue(index, "gknn_clean_buckets_shipped_total") -
        buckets_before;
    if (buckets > 0) ++shipping_queries;
    EXPECT_LE(KernelLaunches(device, "GPU_Memset_T") - memset_before, 1u);
    EXPECT_LE(KernelLaunches(device, "GPU_Collect") - collect_before, 1u);
    // Clean uploads: one per transfer chunk of the shipped buckets. The
    // one other upload of a query is GPU_SDist's distance array.
    const uint64_t clean_h2d =
        device.ledger().totals().h2d_count - h2d_before - 1;
    EXPECT_LE(clean_h2d, (buckets + chunk - 1) / chunk);
  }
  EXPECT_GT(shipping_queries, 30u);
}

TEST(RingSizingTest, SilentObjectsOverPredictButAnswersStayExact) {
  // Objects stop reporting for longer than t_Delta (a sender-contract
  // violation): their buckets expire during cleaning, so the per-cell
  // counts over-predict what a batch returns and the engine grows further
  // rings in further batches. The silent objects are chosen so none of
  // them belongs in any query's answer, so the exact answers are
  // unchanged by whether the index still sees them.
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 800, .seed = 51}))
                   .ValueOrDie();
  gpusim::Device device;
  auto index =
      std::move(GGridIndex::Build(&graph, GGridOptions{}, &device))
          .ValueOrDie();
  baselines::BruteForce oracle(&graph);
  workload::MovingObjectSimulator sim(&graph,
                                      {.num_objects = 250, .seed = 52});
  std::vector<workload::LocationUpdate> fleet;
  sim.EmitFullSnapshot(&fleet);
  for (const auto& u : fleet) {
    ASSERT_TRUE(index->Ingest(u.object_id, u.position, 0.0).ok());
    oracle.Ingest(u.object_id, u.position, 0.0);
  }
  constexpr uint32_t kK = 4;
  const auto queries = workload::GenerateQueries(
      graph, {.num_queries = 8, .k = kK, .start_time = 12.5, .seed = 53});

  // Cells holding some query's answer keep reporting; every other cell
  // falls silent as a whole, so its only bucket ages past t_Delta.
  std::vector<char> reporting_cell(index->grid().num_cells(), 0);
  for (const workload::KnnQuery& q : queries) {
    auto answer = oracle.QueryKnn(q.location, kK, 0.0);
    ASSERT_TRUE(answer.ok());
    for (const KnnResultEntry& e : *answer) {
      reporting_cell[index->object_table().CellOf(e.object)] = 1;
    }
  }
  uint32_t silent = 0;
  for (double t = 1.0; t <= 12.0; t += 1.0) {
    silent = 0;
    for (const auto& u : fleet) {
      if (!reporting_cell[index->object_table().CellOf(u.object_id)]) {
        ++silent;
        continue;
      }
      ASSERT_TRUE(index->Ingest(u.object_id, u.position, t).ok());
      oracle.Ingest(u.object_id, u.position, t);
    }
  }
  ASSERT_GT(silent, fleet.size() / 2);

  uint32_t continued = 0;
  for (const workload::KnnQuery& q : queries) {
    const uint32_t counted_cells =
        RingCellsByObjectTable(*index, q.location, kK);
    KnnStats stats;
    auto got = index->QueryKnn(q.location, kK, q.time, &stats,
                               ExecMode::kGpuOnly);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Examining more cells than the counts call for means a batch came
    // back short and the continuation grew further rings.
    if (stats.cells_examined > counted_cells) ++continued;
    auto want = oracle.QueryKnn(q.location, kK, q.time);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswer(*got, *want);
  }
  EXPECT_GT(continued, 0u);
}

}  // namespace
}  // namespace gknn::core
