#include "core/message_cleaner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/mu.h"
#include "util/lockdep.h"
#include "util/rng.h"

namespace gknn::core {
namespace {

struct CleanerFixture {
  explicit CleanerFixture(uint32_t num_cells, MessageCleaner::Options options)
      : device(),
        cleaner(&device, options),
        arena(options.delta_b),
        lists(num_cells) {
    for (CellId c = 0; c < num_cells; ++c) cells.push_back(c);
  }

  Message Ingest(ObjectId o, CellId cell, double time) {
    Message m;
    m.object = o;
    m.edge = 7;  // any valid-looking edge
    m.offset = static_cast<uint32_t>(seq);
    m.time = time;
    m.seq = ++seq;
    m.cell = cell;
    lists[cell].Append(&arena, m);
    return m;
  }

  void IngestTombstone(ObjectId o, CellId cell, double time) {
    Message m;
    m.object = o;
    m.edge = roadnet::kInvalidEdge;
    m.time = time;
    m.seq = ++seq;
    m.cell = cell;
    lists[cell].Append(&arena, m);
  }

  MessageCleaner::Outcome CleanAll(double t_now) {
    auto outcome = cleaner.Clean(cells, t_now, &arena, &lists);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return std::move(outcome).ValueOrDie();
  }

  gpusim::Device device;
  MessageCleaner cleaner;
  BucketArena arena;
  std::vector<MessageList> lists;
  std::vector<CellId> cells;
  uint64_t seq = 0;
};

MessageCleaner::Options SmallOptions(uint32_t delta_b = 4, uint32_t eta = 3) {
  MessageCleaner::Options o;
  o.delta_b = delta_b;
  o.eta = eta;
  o.t_delta = 100.0;
  o.transfer_chunk_buckets = 8;
  return o;
}

TEST(MessageCleanerTest, SingleObjectKeepsNewest) {
  CleanerFixture fx(1, SmallOptions());
  fx.Ingest(1, 0, 1.0);
  fx.Ingest(1, 0, 2.0);
  const Message last = fx.Ingest(1, 0, 3.0);
  auto outcome = fx.CleanAll(3.0);
  ASSERT_EQ(outcome.latest.size(), 1u);
  EXPECT_EQ(outcome.latest[0].seq, last.seq);
  EXPECT_EQ(outcome.latest[0].cell, 0u);
}

TEST(MessageCleanerTest, CompactsListToOneMessagePerObject) {
  CleanerFixture fx(1, SmallOptions());
  for (int round = 0; round < 10; ++round) {
    for (ObjectId o = 0; o < 5; ++o) {
      fx.Ingest(o, 0, static_cast<double>(round));
    }
  }
  EXPECT_EQ(fx.lists[0].num_messages(), 50u);
  auto outcome = fx.CleanAll(10.0);
  EXPECT_EQ(outcome.latest.size(), 5u);
  EXPECT_EQ(fx.lists[0].num_messages(), 5u);  // compacted
  EXPECT_FALSE(fx.lists[0].locked());
}

TEST(MessageCleanerTest, TombstoneSuppressesDepartedObject) {
  CleanerFixture fx(2, SmallOptions());
  fx.Ingest(1, 0, 1.0);       // object 1 in cell 0
  fx.IngestTombstone(1, 0, 2.0);  // ... then leaves cell 0
  fx.Ingest(1, 1, 2.0);       // and arrives in cell 1 (newer seq)
  auto outcome = fx.CleanAll(2.0);
  ASSERT_EQ(outcome.latest.size(), 1u);
  EXPECT_EQ(outcome.latest[0].cell, 1u);
  EXPECT_EQ(fx.lists[0].num_messages(), 0u);
  EXPECT_EQ(fx.lists[1].num_messages(), 1u);
}

TEST(MessageCleanerTest, TombstoneOnlyWhenNewCellNotCleaned) {
  // Clean only the departed cell: the object must simply vanish from it.
  CleanerFixture fx(2, SmallOptions());
  fx.IngestTombstone(1, 0, 1.0);  // wait: tombstone must be older than move
  fx.Ingest(1, 1, 1.0);
  std::vector<CellId> only_cell0 = {0};
  auto outcome =
      fx.cleaner.Clean(only_cell0, 1.0, &fx.arena, &fx.lists);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->latest.empty());
  EXPECT_EQ(fx.lists[0].num_messages(), 0u);
  EXPECT_EQ(fx.lists[1].num_messages(), 1u);  // untouched
}

TEST(MessageCleanerTest, ExpiredBucketsAreDropped) {
  MessageCleaner::Options options = SmallOptions(/*delta_b=*/2);
  options.t_delta = 5.0;
  CleanerFixture fx(1, options);
  // Old bucket (times 0, 1), then fresh messages (times 10, 11).
  fx.Ingest(1, 0, 0.0);
  fx.Ingest(2, 0, 1.0);
  const Message m1 = fx.Ingest(1, 0, 10.0);
  const Message m2 = fx.Ingest(2, 0, 11.0);
  auto outcome = fx.CleanAll(11.0);
  EXPECT_EQ(outcome.buckets_expired, 1u);
  ASSERT_EQ(outcome.latest.size(), 2u);
  std::map<ObjectId, uint64_t> seqs;
  for (const Message& m : outcome.latest) seqs[m.object] = m.seq;
  EXPECT_EQ(seqs[1], m1.seq);
  EXPECT_EQ(seqs[2], m2.seq);
}

TEST(MessageCleanerTest, OutOfOrderAppendsDoNotMisExpireFreshMessages) {
  // Regression: bucket freshness must be the max message time, not the
  // last appended. With producers whose global delivery order is not
  // chronological (only per-object order is guaranteed, e.g. the striped
  // server inbox), a fresh message followed by an older one must not get
  // the whole bucket expired.
  MessageCleaner::Options options = SmallOptions(/*delta_b=*/8);
  options.t_delta = 5.0;
  CleanerFixture fx(1, options);
  fx.Ingest(1, 0, 100.0);  // fresh message of object 1
  fx.Ingest(2, 0, 1.0);    // stale cross-object append lands after it
  auto outcome = fx.CleanAll(100.0);
  // Object 1 must survive; object 2's record rides along in the same
  // bucket (only whole-stale buckets are dropped).
  bool found_fresh = false;
  for (const Message& m : outcome.latest) {
    if (m.object == 1) found_fresh = true;
  }
  EXPECT_TRUE(found_fresh);
}

TEST(MessageCleanerTest, LockedListIsSkipped) {
  CleanerFixture fx(1, SmallOptions());
  fx.Ingest(1, 0, 1.0);
  fx.lists[0].LockForCleaning(&fx.arena, fx.arena.Alloc());  // in flight
  auto outcome = fx.CleanAll(1.0);
  EXPECT_EQ(outcome.cells_cleaned, 0u);
  EXPECT_TRUE(outcome.latest.empty());
}

TEST(MessageCleanerTest, RepeatedCellIsCleanedOnce) {
  CleanerFixture fx(2, SmallOptions());
  for (int i = 0; i < 6; ++i) fx.Ingest(i % 2, 0, 1.0);
  fx.Ingest(7, 1, 1.0);
  const std::vector<CellId> cells = {0, 1, 0};
  auto outcome = fx.cleaner.Clean(cells, 1.0, &fx.arena, &fx.lists);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->cells_cleaned, 2u);  // the repeat is skipped
  EXPECT_EQ(outcome->latest.size(), 3u);
  EXPECT_EQ(fx.lists[0].num_messages(), 2u);
  EXPECT_TRUE(fx.lists[0].compacted());
  // Every bucket is in a list or back in the pool: none leaked.
  uint32_t in_lists = 0;
  for (const MessageList& list : fx.lists) {
    for (uint32_t b = list.head(); b != kInvalidBucket;
         b = fx.arena.bucket(b).next) {
      ++in_lists;
    }
  }
  EXPECT_EQ(in_lists + fx.arena.num_free(), fx.arena.num_buckets());
}

TEST(MessageCleanerTest, EmptyCellsProduceNothing) {
  CleanerFixture fx(4, SmallOptions());
  auto outcome = fx.CleanAll(1.0);
  EXPECT_EQ(outcome.cells_cleaned, 4u);
  EXPECT_TRUE(outcome.latest.empty());
  for (const auto& list : fx.lists) EXPECT_FALSE(list.locked());
}

TEST(MessageCleanerTest, PipelineChargesTransfersAndKernels) {
  CleanerFixture fx(1, SmallOptions());
  for (int i = 0; i < 50; ++i) fx.Ingest(i % 7, 0, 1.0);
  const auto before = fx.device.ledger().totals();
  auto outcome = fx.CleanAll(1.0);
  const auto after = fx.device.ledger().totals();
  EXPECT_GT(outcome.pipeline_seconds, 0.0);
  EXPECT_GT(after.h2d_bytes, before.h2d_bytes);  // buckets shipped
  EXPECT_GT(after.d2h_bytes, before.d2h_bytes);  // R brought back
  EXPECT_GT(fx.device.kernel_launches(), 0u);
}

TEST(MessageCleanerTest, RepeatedCleaningIsIdempotent) {
  CleanerFixture fx(2, SmallOptions());
  for (ObjectId o = 0; o < 10; ++o) {
    fx.Ingest(o, o % 2, 1.0);
    fx.Ingest(o, o % 2, 2.0);
  }
  auto first = fx.CleanAll(2.0);
  auto second = fx.CleanAll(2.0);
  ASSERT_EQ(first.latest.size(), second.latest.size());
  auto key = [](const Message& m) { return std::pair(m.object, m.seq); };
  auto sorted = [&](std::vector<Message> v) {
    std::sort(v.begin(), v.end(), [&](const Message& a, const Message& b) {
      return key(a) < key(b);
    });
    return v;
  };
  const auto a = sorted(first.latest);
  const auto b = sorted(second.latest);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i]));
  }
}

// Every message of a list, in chain order.
std::vector<Message> ListMessages(const CleanerFixture& fx, CellId cell) {
  std::vector<Message> out;
  for (uint32_t b = fx.lists[cell].head(); b != kInvalidBucket;
       b = fx.arena.bucket(b).next) {
    const Bucket& bucket = fx.arena.bucket(b);
    out.insert(out.end(), bucket.messages.begin(), bucket.messages.end());
  }
  return out;
}

bool SameMessages(const std::vector<Message>& a,
                  const std::vector<Message>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Message& x, const Message& y) {
                      return x.object == y.object && x.seq == y.seq &&
                             x.edge == y.edge && x.offset == y.offset &&
                             x.time == y.time && x.cell == y.cell;
                    });
}

// A seeded multi-batch trace on twin indexes: one cleaned by Clean on the
// device (under the parameter's fault schedule), one by CleanCpu. After
// every batch both hold the same messages in every list, in the same
// order, and report the same survivors; a batch the device fails rolls
// its lists back exactly and is retried; and a committed batch leaves
// table T all-null for the next one.
class CleanTwinTraceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CleanTwinTraceTest, DeviceCleanMatchesHostCleanBatchForBatch) {
  MessageCleaner::Options options = SmallOptions(/*delta_b=*/4, /*eta=*/3);
  options.t_delta = 6.0;  // objects that pause long enough expire
  constexpr uint32_t kCells = 24;
  constexpr uint32_t kObjects = 80;
  CleanerFixture gpu(kCells, options);
  CleanerFixture cpu(kCells, options);
  ASSERT_TRUE(gpu.device.SetFaultSpec(GetParam()).ok());

  util::Rng rng(20260);
  std::map<ObjectId, CellId> where;
  uint32_t rollbacks = 0;
  uint32_t device_commits = 0;
  uint64_t served_compacted = 0;
  uint64_t expired = 0;
  for (int batch = 0; batch < 80; ++batch) {
    const double t_now = 1.0 + batch;
    const uint32_t updates = rng.NextBounded(60);
    for (uint32_t u = 0; u < updates; ++u) {
      // A skewed draw: low ids report often, high ids rarely.
      const ObjectId o = static_cast<ObjectId>(
          rng.NextBounded(1 + rng.NextBounded(kObjects)));
      const CellId cell = static_cast<CellId>(rng.NextBounded(kCells));
      auto it = where.find(o);
      if (it != where.end() && it->second != cell) {
        gpu.IngestTombstone(o, it->second, t_now);
        cpu.IngestTombstone(o, it->second, t_now);
      }
      gpu.Ingest(o, cell, t_now);
      cpu.Ingest(o, cell, t_now);
      where[o] = cell;
    }
    // A random subset of cells, in random order.
    std::vector<CellId> cells = gpu.cells;
    for (size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    cells.resize(1 + rng.NextBounded(kCells));

    std::vector<std::vector<Message>> before(kCells);
    for (CellId c = 0; c < kCells; ++c) before[c] = ListMessages(gpu, c);
    util::Result<MessageCleaner::Outcome> on_device =
        gpu.cleaner.Clean(cells, t_now, &gpu.arena, &gpu.lists);
    const bool committed = on_device.ok();
    if (!committed) {
      // Rolled back exactly; the batch then runs on the host, as
      // GGridIndex::CleanCells falls back after a device error.
      ++rollbacks;
      for (CellId c = 0; c < kCells; ++c) {
        ASSERT_FALSE(gpu.lists[c].locked());
        ASSERT_TRUE(SameMessages(ListMessages(gpu, c), before[c]))
            << "batch " << batch << " cell " << c << " not rolled back";
      }
      on_device = gpu.cleaner.CleanCpu(cells, t_now, &gpu.arena, &gpu.lists);
    }
    ASSERT_TRUE(on_device.ok()) << on_device.status().ToString();
    util::Result<MessageCleaner::Outcome> on_host =
        cpu.cleaner.CleanCpu(cells, t_now, &cpu.arena, &cpu.lists);
    ASSERT_TRUE(on_host.ok());

    EXPECT_TRUE(SameMessages(on_device->latest, on_host->latest))
        << "batch " << batch;
    EXPECT_EQ(on_device->cells_cleaned, on_host->cells_cleaned);
    EXPECT_EQ(on_device->cells_served_compacted,
              on_host->cells_served_compacted);
    EXPECT_EQ(on_device->buckets_shipped, on_host->buckets_shipped);
    EXPECT_EQ(on_device->buckets_expired, on_host->buckets_expired);
    EXPECT_EQ(on_device->messages_shipped, on_host->messages_shipped);
    for (CellId c = 0; c < kCells; ++c) {
      ASSERT_TRUE(SameMessages(ListMessages(gpu, c), ListMessages(cpu, c)))
          << "batch " << batch << " cell " << c;
      EXPECT_EQ(gpu.lists[c].num_messages(), cpu.lists[c].num_messages());
      EXPECT_EQ(gpu.lists[c].compacted(), cpu.lists[c].compacted());
    }
    if (committed && on_device->buckets_shipped > 0) {
      ++device_commits;
      EXPECT_TRUE(gpu.cleaner.TableTIsNull()) << "batch " << batch;
    }
    served_compacted += on_device->cells_served_compacted;
    expired += on_device->buckets_expired;
  }
  // The trace exercises the fast path and expiry, and a fault schedule
  // really fails batches. Under kernel:every=3 no device batch commits: after the first
  // failure each batch needs GPU_Memset_T, GPU_X_Shuffle and GPU_Collect,
  // one launch per period.
  EXPECT_GT(served_compacted, 0u);
  EXPECT_GT(expired, 0u);
  const std::string_view spec(GetParam());
  EXPECT_EQ(rollbacks > 0, !spec.empty());
  EXPECT_EQ(device_commits > 0, !spec.starts_with("kernel"));
}

INSTANTIATE_TEST_SUITE_P(FaultSchedules, CleanTwinTraceTest,
                         ::testing::Values("", "kernel:every=3",
                                           "transfer:every=4"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           const std::string_view spec(info.param);
                           if (spec.empty()) return std::string("healthy");
                           return std::string(spec.substr(0, spec.find(':')));
                         });

// Lock traffic: a batch takes its stripes plus a fixed number of other
// locks, whatever its size — the arena lock at most twice (one AllocMany
// for the lock buckets, one FreeAll for the buckets commit did not reuse).
TEST(MessageCleanerLockTrafficTest, NonStripeAcquisitionsDoNotGrowWithCells) {
  if (!util::lockdep::kEnabled) GTEST_SKIP() << "needs GKNN_LOCKDEP";
  MessageCleaner::Options options = SmallOptions(/*delta_b=*/4, /*eta=*/3);
  options.transfer_chunk_buckets = 256;  // every batch is one chunk
  CleanerFixture fx(64, options);
  struct Traffic {
    uint64_t non_stripe;
    uint64_t arena;
  };
  auto clean_dirty = [&](uint32_t n) {
    for (CellId c = 0; c < n; ++c) {
      fx.Ingest(c, c, 1.0);
      fx.Ingest(c, c, 1.0);
    }
    namespace lockdep = util::lockdep;
    const uint64_t total = lockdep::ThreadAcquisitions();
    const uint64_t stripes =
        lockdep::ThreadAcquisitions(lockdep::kCleanerStripeClass);
    const uint64_t arena =
        lockdep::ThreadAcquisitions(lockdep::kCoreArenaClass);
    auto outcome = fx.cleaner.Clean(std::span(fx.cells).first(n), 1.0,
                                    &fx.arena, &fx.lists);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->cells_cleaned, n);
    EXPECT_GE(outcome->buckets_shipped, n);
    const uint64_t stripe_delta =
        lockdep::ThreadAcquisitions(lockdep::kCleanerStripeClass) - stripes;
    EXPECT_EQ(stripe_delta, std::min<uint64_t>(n, 32));
    return Traffic{lockdep::ThreadAcquisitions() - total - stripe_delta,
                   lockdep::ThreadAcquisitions(lockdep::kCoreArenaClass) -
                       arena};
  };
  // Two warm-up batches bring the lists (compacted prefix + lock bucket)
  // and the device buffers to their steady sizes, so neither measured
  // batch allocates device memory.
  clean_dirty(64);
  clean_dirty(64);
  const Traffic eight = clean_dirty(8);
  const Traffic all = clean_dirty(64);
  EXPECT_GT(eight.non_stripe, 0u);
  EXPECT_EQ(eight.non_stripe, all.non_stripe);
  EXPECT_LE(eight.arena, 2u);
  EXPECT_LE(all.arena, 2u);
}

// Property: for any random interleaving of updates and cell moves, cleaning
// must agree with a sequential "latest message per object" fold. Swept over
// bundle widths (including > warp size) and bucket capacities.
struct ShuffleParams {
  uint32_t eta;
  uint32_t delta_b;
};

class CleanerPropertyTest : public ::testing::TestWithParam<ShuffleParams> {};

TEST_P(CleanerPropertyTest, MatchesSequentialFold) {
  const auto [eta, delta_b] = GetParam();
  MessageCleaner::Options options;
  options.eta = eta;
  options.delta_b = delta_b;
  options.t_delta = 1000.0;
  options.transfer_chunk_buckets = 3 * (1u << eta);  // force chunking

  util::Rng rng(eta * 1000 + delta_b);
  for (int trial = 0; trial < 5; ++trial) {
    const uint32_t num_cells = 4;
    const uint32_t num_objects = 20;
    CleanerFixture fx(num_cells, options);

    // Expected state: latest (seq, cell) per object, maintained like
    // Algorithm 1 (tombstone on cell change).
    std::map<ObjectId, std::pair<uint64_t, CellId>> expected;
    for (int step = 0; step < 400; ++step) {
      const ObjectId o =
          static_cast<ObjectId>(rng.NextBounded(num_objects));
      const CellId cell = static_cast<CellId>(rng.NextBounded(num_cells));
      auto it = expected.find(o);
      if (it != expected.end() && it->second.second != cell) {
        fx.IngestTombstone(o, it->second.second, 1.0);
      }
      const Message m = fx.Ingest(o, cell, 1.0);
      expected[o] = {m.seq, cell};
    }

    auto outcome = fx.CleanAll(1.0);
    ASSERT_EQ(outcome.latest.size(), expected.size());
    for (const Message& m : outcome.latest) {
      auto it = expected.find(m.object);
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(m.seq, it->second.first) << "object " << m.object;
      EXPECT_EQ(m.cell, it->second.second) << "object " << m.object;
    }
    // And the rewritten lists hold exactly one message per live object.
    std::map<CellId, uint32_t> per_cell;
    for (const auto& [o, state] : expected) {
      (void)o;
      ++per_cell[state.second];
    }
    for (CellId c = 0; c < num_cells; ++c) {
      EXPECT_EQ(fx.lists[c].num_messages(),
                per_cell.count(c) ? per_cell[c] : 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BundleAndBucketSweep, CleanerPropertyTest,
    ::testing::Values(ShuffleParams{2, 2}, ShuffleParams{2, 8},
                      ShuffleParams{3, 4}, ShuffleParams{4, 4},
                      ShuffleParams{5, 8}, ShuffleParams{5, 32},
                      ShuffleParams{6, 16}, ShuffleParams{7, 8}),
    [](const ::testing::TestParamInfo<ShuffleParams>& info) {
      return "eta" + std::to_string(info.param.eta) + "_db" +
             std::to_string(info.param.delta_b);
    });

}  // namespace
}  // namespace gknn::core
