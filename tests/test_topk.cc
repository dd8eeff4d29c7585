#include "gpusim/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "gpusim/device_buffer.h"
#include "util/rng.h"

namespace gknn::gpusim {
namespace {

std::vector<uint64_t> Reference(std::vector<uint64_t> values, uint32_t k) {
  std::sort(values.begin(), values.end());
  if (values.size() > k) values.resize(k);
  return values;
}

std::vector<uint64_t> RunTopK(Device* device,
                              const std::vector<uint64_t>& values,
                              uint32_t k) {
  auto buf = DeviceBuffer<uint64_t>::Allocate(device, values.size());
  GKNN_CHECK(buf.ok());
  if (!values.empty()) GKNN_CHECK(buf->Upload(values).ok());
  return *TopKSmallest<uint64_t>(device, buf->device_span(), k,
                                 std::numeric_limits<uint64_t>::max());
}

TEST(TopKTest, SmallHandCase) {
  Device device;
  EXPECT_EQ(RunTopK(&device, {9, 1, 8, 2, 7, 3}, 3),
            (std::vector<uint64_t>{1, 2, 3}));
}

TEST(TopKTest, EmptyInput) {
  Device device;
  EXPECT_TRUE(RunTopK(&device, {}, 5).empty());
}

TEST(TopKTest, KLargerThanInput) {
  Device device;
  EXPECT_EQ(RunTopK(&device, {5, 3, 4}, 10),
            (std::vector<uint64_t>{3, 4, 5}));
}

TEST(TopKTest, SingleElement) {
  Device device;
  EXPECT_EQ(RunTopK(&device, {42}, 1), (std::vector<uint64_t>{42}));
}

TEST(TopKTest, DuplicatesPreserved) {
  Device device;
  EXPECT_EQ(RunTopK(&device, {5, 5, 5, 1, 1, 9}, 4),
            (std::vector<uint64_t>{1, 1, 5, 5}));
}

TEST(TopKTest, AlreadySortedAndReversed) {
  Device device;
  std::vector<uint64_t> asc(100), desc(100);
  for (uint64_t i = 0; i < 100; ++i) {
    asc[i] = i;
    desc[i] = 99 - i;
  }
  EXPECT_EQ(RunTopK(&device, asc, 7), Reference(asc, 7));
  EXPECT_EQ(RunTopK(&device, desc, 7), Reference(desc, 7));
}

struct TopKParams {
  uint32_t n;
  uint32_t k;
};

class TopKPropertyTest : public ::testing::TestWithParam<TopKParams> {};

TEST_P(TopKPropertyTest, MatchesPartialSort) {
  const auto [n, k] = GetParam();
  Device device;
  util::Rng rng(n * 131 + k);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.NextBounded(1u << 20);
    ASSERT_EQ(RunTopK(&device, values, k), Reference(values, k))
        << "n=" << n << " k=" << k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKPropertyTest,
    ::testing::Values(TopKParams{1, 1}, TopKParams{31, 4}, TopKParams{32, 32},
                      TopKParams{33, 8}, TopKParams{100, 16},
                      TopKParams{1000, 1}, TopKParams{1000, 64},
                      TopKParams{257, 256}, TopKParams{4096, 128},
                      TopKParams{777, 100}),
    [](const ::testing::TestParamInfo<TopKParams>& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k);
    });

TEST(TopKTest, FuzzRandomLengthsTiesAndOversizedK) {
  // Randomized sweep against the oracle: lengths drawn at random, values
  // from a tiny range (so ties and long duplicate runs dominate the
  // bitonic networks), and k frequently larger than n.
  Device device;
  util::Rng rng(20240801);
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBounded(300));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBounded(2 * n));
    std::vector<uint64_t> values(n);
    for (auto& v : values) {
      // Every eighth trial uses a wide value range; the rest squeeze the
      // values into [0, 8) to force ties at the selection boundary.
      v = trial % 8 == 0 ? rng.Next() : rng.NextBounded(8);
    }
    ASSERT_EQ(RunTopK(&device, values, k), Reference(values, k))
        << "n=" << n << " k=" << k << " trial=" << trial;
  }
}

TEST(TopKTest, AllValuesEqualReturnsKCopies) {
  Device device;
  const std::vector<uint64_t> values(97, 42);
  EXPECT_EQ(RunTopK(&device, values, 10), Reference(values, 10));
  // k > n with total ties: exactly n copies come back, never a sentinel.
  const auto result = RunTopK(&device, values, 200);
  EXPECT_EQ(result, std::vector<uint64_t>(97, 42));
}

TEST(TopKTest, WideBlocksPayCrossWarpPenalty) {
  // k > 32 forces bundles wider than the warp: modeled time per element
  // must exceed the narrow-block case.
  DeviceConfig config;
  config.kernel_launch_seconds = 0;
  Device narrow_device(config), wide_device(config);
  util::Rng rng(3);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next();

  RunTopK(&narrow_device, values, 16);   // width 32
  RunTopK(&wide_device, values, 256);    // width 256, cross-warp syncs
  EXPECT_GT(wide_device.ClockSeconds(), narrow_device.ClockSeconds());
}

TEST(TopKTest, ChargesResultTransfer) {
  Device device;
  const auto before = device.ledger().totals().d2h_bytes;
  RunTopK(&device, {3, 1, 2}, 2);
  EXPECT_EQ(device.ledger().totals().d2h_bytes - before,
            2 * sizeof(uint64_t));
}

TEST(TopKTest, ClockChargesEveryLaunchAndTheResultReadback) {
  // Every modeled second of a TopKSmallest call reaches the device clock:
  // its kernel launches plus the readback of the k winners.
  Device device;
  util::Rng rng(11);
  std::vector<uint64_t> values(700);
  for (auto& v : values) v = rng.Next();
  auto buf = DeviceBuffer<uint64_t>::Allocate(&device, values.size());
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(buf->Upload(values).ok());

  auto kernel_seconds = [&device] {
    double total = 0;
    for (const auto& [label, totals] : device.kernel_totals()) {
      total += totals.modeled_seconds;
    }
    return total;
  };
  const double clock_before = device.ClockSeconds();
  const double kernels_before = kernel_seconds();
  const double ledger_before = device.ledger().totals().total_seconds();
  ASSERT_TRUE(TopKSmallest<uint64_t>(&device, buf->device_span(), 16,
                                     std::numeric_limits<uint64_t>::max())
                  .ok());
  const double kernels = kernel_seconds() - kernels_before;
  const double transfers =
      device.ledger().totals().total_seconds() - ledger_before;
  EXPECT_GT(kernels, 0);
  EXPECT_GT(transfers, 0);
  EXPECT_NEAR(device.ClockSeconds() - clock_before, kernels + transfers,
              1e-12);
}

}  // namespace
}  // namespace gknn::gpusim
