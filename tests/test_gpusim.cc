#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/device_buffer.h"
#include "gpusim/scan.h"
#include "gpusim/stream.h"
#include "gpusim/warp.h"

namespace gknn::gpusim {
namespace {

TEST(DeviceTest, MemoryAccounting) {
  DeviceConfig config;
  config.memory_bytes = 1024;
  Device device(config);

  auto buf = DeviceBuffer<uint64_t>::Allocate(&device, 64);  // 512 bytes
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(device.bytes_allocated(), 512u);

  auto too_big = DeviceBuffer<uint64_t>::Allocate(&device, 128);  // 1024 more
  EXPECT_FALSE(too_big.ok());
  EXPECT_TRUE(too_big.status().IsResourceExhausted());

  buf->Release();
  EXPECT_EQ(device.bytes_allocated(), 0u);
  EXPECT_EQ(device.peak_bytes(), 512u);

  auto now_fits = DeviceBuffer<uint64_t>::Allocate(&device, 128);
  EXPECT_TRUE(now_fits.ok());
}

TEST(DeviceTest, BufferMoveTransfersOwnership) {
  Device device;
  auto a = DeviceBuffer<int>::Allocate(&device, 10);
  ASSERT_TRUE(a.ok());
  DeviceBuffer<int> b = std::move(a).ValueOrDie();
  EXPECT_TRUE(b.allocated());
  EXPECT_EQ(b.size(), 10u);
  DeviceBuffer<int> c = std::move(b);
  EXPECT_FALSE(b.allocated());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(c.allocated());
  EXPECT_EQ(device.bytes_allocated(), 10 * sizeof(int));
}

TEST(DeviceTest, UploadDownloadRoundTrip) {
  Device device;
  auto buf = DeviceBuffer<int>::Allocate(&device, 8);
  ASSERT_TRUE(buf.ok());
  std::vector<int> in = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(buf->Upload(in).ok());
  EXPECT_EQ(*buf->Download(), in);
}

TEST(DeviceTest, TransfersChargeLedgerAndClock) {
  Device device;
  auto buf = DeviceBuffer<int>::Allocate(&device, 1000);
  ASSERT_TRUE(buf.ok());
  std::vector<int> data(1000, 7);

  EXPECT_EQ(device.ledger().totals().h2d_bytes, 0u);
  EXPECT_DOUBLE_EQ(device.ClockSeconds(), 0.0);

  ASSERT_TRUE(buf->Upload(data).ok());
  EXPECT_EQ(device.ledger().totals().h2d_bytes, 4000u);
  EXPECT_EQ(device.ledger().totals().h2d_count, 1u);
  EXPECT_GT(device.ClockSeconds(), 0.0);

  ASSERT_TRUE(buf->Download().ok());
  EXPECT_EQ(device.ledger().totals().d2h_bytes, 4000u);
  EXPECT_EQ(device.ledger().totals().d2h_count, 1u);
}

TEST(DeviceTest, TransferTimeModelIsLatencyPlusBandwidth) {
  DeviceConfig config;
  config.transfer_latency_seconds = 1e-5;
  config.h2d_bytes_per_second = 1e9;
  Device device(config);
  auto buf = DeviceBuffer<char>::Allocate(&device, 1'000'000);
  ASSERT_TRUE(buf.ok());
  std::vector<char> data(1'000'000, 'x');
  const double seconds = *buf->Upload(data);
  EXPECT_NEAR(seconds, 1e-5 + 1e6 / 1e9, 1e-12);
}

TEST(KernelTest, LaunchRunsEveryThread) {
  Device device;
  auto buf = DeviceBuffer<uint32_t>::Allocate(&device, 100);
  ASSERT_TRUE(buf.ok());
  auto span = buf->device_span();
  const auto launched = device.Launch(100, [&](ThreadCtx& ctx) {
    span[ctx.thread_id] = ctx.thread_id * 2;
    ctx.CountOps(1);
  });
  ASSERT_TRUE(launched.ok());
  std::vector<uint32_t> out = *buf->Download();
  for (uint32_t i = 0; i < 100; ++i) ASSERT_EQ(out[i], i * 2);
}

TEST(KernelTest, ModeledTimeScalesWithWaves) {
  DeviceConfig config;
  config.num_cores = 10;
  config.kernel_launch_seconds = 0;
  Device device(config);

  auto one_wave = device.Launch(10, [](ThreadCtx& ctx) { ctx.CountOps(100); });
  auto two_waves = device.Launch(20, [](ThreadCtx& ctx) { ctx.CountOps(100); });
  EXPECT_NEAR(two_waves->modeled_seconds, 2 * one_wave->modeled_seconds, 1e-12);
  EXPECT_EQ(device.kernel_launches(), 2u);
}

TEST(KernelTest, LaunchIterativeStopsAtFixpoint) {
  Device device;
  std::vector<int> value(4, 0);
  auto stats = device.LaunchIterative(
      4, /*max_iters=*/100, /*stop_when_stable=*/true,
      [&](ThreadCtx& ctx, uint32_t) {
        ctx.CountOps(1);
        if (value[ctx.thread_id] < static_cast<int>(ctx.thread_id)) {
          ++value[ctx.thread_id];
          return true;
        }
        return false;
      });
  // Thread 3 needs 3 productive iterations; one more settles the fixpoint.
  EXPECT_EQ(stats->iterations, 4u);
  EXPECT_EQ(value, (std::vector<int>{0, 1, 2, 3}));
}

TEST(KernelTest, LaunchIterativeRespectsMaxIters) {
  Device device;
  auto stats = device.LaunchIterative(
      2, /*max_iters=*/7, /*stop_when_stable=*/true,
      [](ThreadCtx& ctx, uint32_t) {
        ctx.CountOps(1);
        return true;  // never stabilizes
      });
  EXPECT_EQ(stats->iterations, 7u);
}

TEST(WarpTest, ShflXorSwapsLaneRegisters) {
  Device device;
  const auto swap_launch = LaunchWarps(&device, 1, 8, [](WarpCtx& warp) {
    std::vector<int> regs(8);
    std::iota(regs.begin(), regs.end(), 0);
    warp.ShflXor(regs, 4);
    // Lane i now holds the value of lane i^4.
    for (uint32_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(regs[lane], static_cast<int>(lane ^ 4));
    }
    warp.ShflXor(regs, 4);  // involution: shuffling twice restores
    for (uint32_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(regs[lane], static_cast<int>(lane));
    }
  });
  ASSERT_TRUE(swap_launch.ok());
}

TEST(WarpTest, PaperButterflyExample) {
  // Paper §IV-C2: with 4 threads, shuffle_xor(2) exchanges lanes 0<->2 and
  // 1<->3.
  Device device;
  const auto butterfly = LaunchWarps(&device, 1, 4, [](WarpCtx& warp) {
    std::vector<char> regs = {'a', 'b', 'c', 'd'};
    warp.ShflXor(regs, 2);
    EXPECT_EQ(regs, (std::vector<char>{'c', 'd', 'a', 'b'}));
  });
  ASSERT_TRUE(butterfly.ok());
}

TEST(WarpTest, EachWarpGetsDistinctId) {
  Device device;
  std::vector<uint32_t> seen;
  const auto ids_launch = LaunchWarps(
      &device, 5, 4, [&](WarpCtx& warp) { seen.push_back(warp.warp_id()); });
  ASSERT_TRUE(ids_launch.ok());
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(WarpTest, CrossWarpShufflePaysSyncPenalty) {
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  Device device(config);

  auto narrow = LaunchWarps(&device, 1, 32, [](WarpCtx& warp) {
    std::vector<int> regs(32, 0);
    for (int i = 0; i < 10; ++i) warp.ShflXor(regs, 1);
  });
  auto wide = LaunchWarps(&device, 1, 64, [](WarpCtx& warp) {
    std::vector<int> regs(64, 0);
    for (int i = 0; i < 10; ++i) warp.ShflXor(regs, 1);
  });
  // The 64-lane bundle spans two hardware warps: every shuffle costs the
  // cross-warp sync penalty instead of one cycle (paper Fig. 4b).
  EXPECT_GT(wide->modeled_seconds, 10 * narrow->modeled_seconds);
}

TEST(StreamTest, PipelineOverlapsCopyAndCompute) {
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  config.transfer_latency_seconds = 0;
  config.h2d_bytes_per_second = 1e9;
  Device device(config);

  // Two chunks of 1 MB (1 ms each on the copy engine), each followed by a
  // 1 ms kernel. Pipelined total: copy0 (1ms) + kernel0 overlaps copy1 +
  // kernel1 = 3 ms, instead of 4 ms blocking.
  Stream stream(&device);
  ASSERT_TRUE(stream.EnqueueH2D(1'000'000).ok());
  stream.EnqueueKernelSeconds(1e-3);
  ASSERT_TRUE(stream.EnqueueH2D(1'000'000).ok());
  stream.EnqueueKernelSeconds(1e-3);
  const double total = stream.Synchronize();
  EXPECT_NEAR(total, 3e-3, 1e-9);
}

TEST(StreamTest, ReadbackWaitsForTheKernelThatProducesIt) {
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  config.transfer_latency_seconds = 0;
  config.h2d_bytes_per_second = 1e9;
  config.d2h_bytes_per_second = 1e9;
  Device device(config);

  // H2D (1 ms) -> kernel (2 ms) -> D2H of its result (0.5 ms): the
  // readback cannot overlap the kernel that writes what it copies, so the
  // three serialize even on a pipelined stream.
  Stream stream(&device);
  ASSERT_TRUE(stream.EnqueueH2D(1'000'000).ok());
  stream.EnqueueKernelSeconds(2e-3);
  ASSERT_TRUE(stream.EnqueueD2H(500'000).ok());
  EXPECT_NEAR(stream.Synchronize(), 1e-3 + 2e-3 + 0.5e-3, 1e-9);
}

TEST(StreamTest, SynchronizeChargesDeviceClockOnce) {
  Device device;
  Stream stream(&device);
  const double before = device.ClockSeconds();
  ASSERT_TRUE(stream.EnqueueH2D(1000).ok());
  stream.EnqueueKernelSeconds(1e-4);
  const double total = stream.Synchronize();
  EXPECT_NEAR(device.ClockSeconds() - before, total, 1e-12);
}

TEST(StreamTest, MoveKernelToStreamReversesSynchronousCharge) {
  DeviceConfig config;
  Device device(config);
  Stream stream(&device);
  auto stats = device.Launch(16, [](ThreadCtx& ctx) { ctx.CountOps(10); });
  const double after_launch = device.ClockSeconds();
  stream.MoveKernelToStream(*stats);
  EXPECT_NEAR(device.ClockSeconds(), after_launch - stats->modeled_seconds,
              1e-15);
  const double total = stream.Synchronize();
  EXPECT_NEAR(total, stats->modeled_seconds, 1e-15);
}

TEST(StreamTest, BlockingModeSerializesEverything) {
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  config.transfer_latency_seconds = 0;
  config.h2d_bytes_per_second = 1e9;
  Device device(config);

  // Same workload as the pipelined test: blocking mode must take the full
  // 4 ms (no copy/compute overlap).
  Stream stream(&device, /*pipelined=*/false);
  ASSERT_TRUE(stream.EnqueueH2D(1'000'000).ok());
  stream.EnqueueKernelSeconds(1e-3);
  ASSERT_TRUE(stream.EnqueueH2D(1'000'000).ok());
  stream.EnqueueKernelSeconds(1e-3);
  EXPECT_NEAR(stream.Synchronize(), 4e-3, 1e-9);
}

TEST(DeviceTest, SimWallTracksFunctionalKernelExecution) {
  Device device;
  const double before = device.sim_wall_seconds();
  // A kernel that does real host work: the simulator must attribute its
  // wall time to sim_wall_seconds so callers can exclude it from CPU
  // accounting.
  volatile uint64_t sink = 0;
  const auto busy_launch = device.Launch(4, [&](ThreadCtx& ctx) {
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    ctx.CountOps(100000);
  });
  ASSERT_TRUE(busy_launch.ok());
  EXPECT_GT(device.sim_wall_seconds(), before);
}

TEST(WarpTest, WaveModelScalesWithWarpCount) {
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  config.num_cores = 64;  // room for 2 warps of 32
  Device device(config);
  auto two_warps = LaunchWarps(&device, 2, 32, [](WarpCtx& warp) {
    warp.CountOpsPerLane(1000);
  });
  auto four_warps = LaunchWarps(&device, 4, 32, [](WarpCtx& warp) {
    warp.CountOpsPerLane(1000);
  });
  // 4 warps on 2 warp slots need twice the waves of 2 warps.
  EXPECT_NEAR(four_warps->modeled_seconds, 2 * two_warps->modeled_seconds,
              1e-12);
}

TEST(ScanTest, ExclusivePrefixSums) {
  Device device;
  auto buf = DeviceBuffer<uint32_t>::Allocate(&device, 6);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(buf->Upload({3, 1, 4, 1, 5, 9}).ok());
  auto span = buf->device_span();
  const uint32_t total = *ExclusiveScan(&device, span);
  EXPECT_EQ(total, 23u);
  EXPECT_EQ(*buf->Download(),
            (std::vector<uint32_t>{0, 3, 4, 8, 9, 14}));
}

TEST(ScanTest, EmptyAndSingle) {
  Device device;
  std::vector<uint32_t> empty;
  EXPECT_EQ(*ExclusiveScan(&device, std::span<uint32_t>(empty)), 0u);
  std::vector<uint32_t> one = {7};
  EXPECT_EQ(*ExclusiveScan(&device, std::span<uint32_t>(one)), 7u);
  EXPECT_EQ(one[0], 0u);
}

TEST(ScanTest, FlagsCompactionPattern) {
  // The flag -> scan -> scatter idiom: offsets index a dense output.
  Device device;
  std::vector<uint32_t> flags = {1, 0, 1, 1, 0, 0, 1};
  const uint32_t total =
      *ExclusiveScan(&device, std::span<uint32_t>(flags));
  EXPECT_EQ(total, 4u);
  // Offsets at flagged positions are 0,1,2,3.
  EXPECT_EQ(flags[0], 0u);
  EXPECT_EQ(flags[2], 1u);
  EXPECT_EQ(flags[3], 2u);
  EXPECT_EQ(flags[6], 3u);
}

TEST(ScanTest, ChargesDeviceTime) {
  Device device;
  std::vector<uint32_t> values(1000, 1);
  const double before = device.ClockSeconds();
  ASSERT_TRUE(ExclusiveScan(&device, std::span<uint32_t>(values)).ok());
  EXPECT_GT(device.ClockSeconds(), before);
}

TEST(StreamTest, UploadAsyncMovesBytesEagerly) {
  Device device;
  auto buf = DeviceBuffer<int>::Allocate(&device, 4);
  ASSERT_TRUE(buf.ok());
  Stream stream(&device);
  std::vector<int> data = {4, 3, 2, 1};
  ASSERT_TRUE(UploadAsync(&stream, &*buf, data.data(), data.size()).ok());
  // Data visible to kernels immediately, before Synchronize.
  EXPECT_EQ(buf->device_span()[0], 4);
  EXPECT_EQ(device.ledger().totals().h2d_bytes, 16u);
  stream.Synchronize();
}

}  // namespace
}  // namespace gknn::gpusim
