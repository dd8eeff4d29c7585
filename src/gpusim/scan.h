#ifndef GKNN_GPUSIM_SCAN_H_
#define GKNN_GPUSIM_SCAN_H_

#include <cstdint>
#include <span>

#include "gpusim/device.h"
#include "util/result.h"

namespace gknn::gpusim {

/// Exclusive prefix sum over a device-side array, in place. Returns the
/// total (sum of all inputs), or the injected error when the fault
/// schedule fails the scan kernel (the array is left unmodified). The
/// total lives on the device: no readback is charged here, so a caller
/// whose host code acts on it must bring it back in a charged copy (the
/// kNN engine's GPU_Unresolved returns it with the compacted list).
///
/// Modeled as the work-efficient Blelloch scan: 2·log2(n) sweep phases,
/// each a device-wide pass with a barrier — the standard building block
/// for stream compaction on GPUs (flag → scan → scatter), which is how
/// kernels like GPU_Unresolved emit variable-length result sets without
/// host-side synchronization.
util::Result<uint32_t> ExclusiveScan(Device* device,
                                     std::span<uint32_t> values);

}  // namespace gknn::gpusim

#endif  // GKNN_GPUSIM_SCAN_H_
