#ifndef GKNN_GPUSIM_TOPK_H_
#define GKNN_GPUSIM_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/warp.h"
#include "util/logging.h"
#include "util/result.h"

namespace gknn::gpusim {

/// Device-side k-smallest selection via warp-level bitonic networks — the
/// "parallel sorting algorithm that runs in O(log rho*k) time" the paper's
/// GPU_First_k uses (§VI-B2).
///
/// Algorithm (classic GPU top-k):
///  1. split the input into blocks of width B = max(32, next_pow2(k)),
///     padded with `sentinel` (a value larger than any real one);
///  2. each block bitonic-sorts ascending in registers — every
///     compare-exchange is one ShflXor between partner lanes;
///  3. merge blocks pairwise: C[i] = min(A[i], B[B-1-i]) holds exactly the
///     B smallest of A ∪ B and is bitonic, so one final bitonic-merge
///     pass (log B stages) re-sorts it; repeat until one block remains.
///
/// The first k entries of the surviving block are the answer. Blocks wider
/// than the hardware warp pay the cross-warp synchronization penalty per
/// collective, like every bundle in this simulator.
///
/// `T` must be totally ordered by `operator<` and copyable; `values` is a
/// device-side span (contents are not modified). Propagates injected
/// kernel/transfer faults from its launches and the final result copy.
template <typename T>
util::Result<std::vector<T>> TopKSmallest(Device* device,
                                          std::span<const T> values,
                                          uint32_t k, const T& sentinel) {
  GKNN_CHECK(k > 0);
  const uint32_t n = static_cast<uint32_t>(values.size());
  if (n == 0) return std::vector<T>{};
  k = std::min(k, n);

  uint32_t width = 32;
  while (width < k) width <<= 1;

  const uint32_t n_blocks = (n + width - 1) / width;
  // Working copy in "device registers": one vector of lane values per
  // block, padded with the sentinel.
  std::vector<std::vector<T>> blocks(n_blocks, std::vector<T>(width, sentinel));
  for (uint32_t i = 0; i < n; ++i) {
    blocks[i / width][i % width] = values[i];
  }

  // Step 2: bitonic sort every block ascending, one bundle per block.
  auto bitonic_sort = [width](WarpCtx& warp, std::vector<T>& regs) {
    for (uint32_t stage = 2; stage <= width; stage <<= 1) {
      for (uint32_t step = stage >> 1; step > 0; step >>= 1) {
        std::vector<T> partner = regs;
        warp.ShflXor(partner, step);
        for (uint32_t lane = 0; lane < width; ++lane) {
          const bool ascending = (lane & stage) == 0;
          const bool upper = (lane & step) != 0;
          // The upper lane of an ascending pair keeps the max (and
          // symmetrically): adopt the partner's value exactly when it is
          // the one this lane should hold.
          const bool take_max = ascending == upper;
          const bool partner_bigger = regs[lane] < partner[lane];
          if (take_max == partner_bigger) regs[lane] = partner[lane];
        }
        warp.CountOpsPerLane(2);
      }
    }
  };
  // Final merge pass for a bitonic sequence (the stage == width phase).
  auto bitonic_merge = [width](WarpCtx& warp, std::vector<T>& regs) {
    for (uint32_t step = width >> 1; step > 0; step >>= 1) {
      std::vector<T> partner = regs;
      warp.ShflXor(partner, step);
      for (uint32_t lane = 0; lane < width; ++lane) {
        const bool upper = (lane & step) != 0;
        const bool partner_bigger = regs[lane] < partner[lane];
        if (upper == partner_bigger) regs[lane] = partner[lane];
      }
      warp.CountOpsPerLane(2);
    }
  };

  GKNN_RETURN_NOT_OK(LaunchWarps(device, "GPU_First_k/sort", n_blocks, width,
                                 [&bitonic_sort, &blocks](WarpCtx& warp) {
                                   bitonic_sort(warp, blocks[warp.warp_id()]);
                                 })
                         .status());

  // Step 3: pairwise reduction rounds.
  uint32_t live = n_blocks;
  while (live > 1) {
    const uint32_t pairs = live / 2;
    auto merge_stats = LaunchWarps(
        device, "GPU_First_k/merge", pairs, width,
        [&blocks, &bitonic_merge, width](WarpCtx& warp) {
      std::vector<T>& a = blocks[2 * warp.warp_id()];
      std::vector<T>& b = blocks[2 * warp.warp_id() + 1];
      // C[i] = min(A[i], B[width-1-i]): the B smallest of A ∪ B, bitonic.
      for (uint32_t lane = 0; lane < width; ++lane) {
        const T& mirrored = b[width - 1 - lane];
        if (mirrored < a[lane]) a[lane] = mirrored;
      }
      warp.CountOpsPerLane(2);
      bitonic_merge(warp, a);
    });
    GKNN_RETURN_NOT_OK(merge_stats.status());
    // Compact the surviving blocks to the front (guarding self-moves).
    for (uint32_t p = 1; p < pairs; ++p) blocks[p] = std::move(blocks[2 * p]);
    if (live % 2 == 1 && pairs != live - 1) {
      blocks[pairs] = std::move(blocks[live - 1]);
    }
    live = pairs + (live % 2);
  }

  // The k smallest come back to the host: a synchronous readback, charged
  // to the ledger and the device clock like DeviceBuffer::Download.
  GKNN_RETURN_NOT_OK(device->CheckTransferFault("GPU_First_k/result"));
  device->AdvanceClock(
      device->ledger().RecordD2H(k * sizeof(T), device->config()));
  std::vector<T> result(blocks[0].begin(), blocks[0].begin() + k);
  // Drop padding if fewer than k real values existed (k was clamped to n,
  // but sentinels can still surface when the caller's sentinel compares
  // equal to real data — callers pass a strictly-larger sentinel).
  return result;
}

}  // namespace gknn::gpusim

#endif  // GKNN_GPUSIM_TOPK_H_
