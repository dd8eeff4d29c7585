#ifndef GKNN_GPUSIM_STREAM_H_
#define GKNN_GPUSIM_STREAM_H_

#include <algorithm>
#include <cstdint>

#include "gpusim/device.h"
#include "gpusim/device_buffer.h"

namespace gknn::gpusim {

/// A pipelined command stream: copies run on the copy engine, kernels on
/// the compute engine, and a kernel only starts once every copy enqueued
/// before it has landed. This models the paper's pipelined message-list
/// transfer (§V-A: "let the GPU process and receive messages
/// simultaneously").
///
/// Functional effects (the memcpy, the kernel's results) happen eagerly at
/// enqueue time; only the *modeled time* is deferred and overlapped. That
/// is sound because the consumers of a chunk's data are the kernels
/// enqueued after it, matching the dependency structure the timeline
/// enforces.
class Stream {
 public:
  /// `pipelined = false` degrades to a blocking command queue (copies and
  /// kernels strictly serialize), used by the pipeline ablation benchmark.
  explicit Stream(Device* device, bool pipelined = true)
      : device_(device), pipelined_(pipelined) {}

  Device* device() const { return device_; }

  /// Enqueues a host-to-device copy of `bytes` on the copy engine and
  /// records it in the ledger. Fails (without recording anything) when the
  /// fault schedule fires on the copy.
  util::Status EnqueueH2D(uint64_t bytes) {
    GKNN_RETURN_NOT_OK(device_->CheckTransferFault("stream H2D"));
    AddCopy(device_->ledger().RecordH2D(bytes, device_->config()));
    return util::Status::OK();
  }

  /// Enqueues a device-to-host copy of `bytes` on the copy engine. A
  /// readback copies what the kernels enqueued before it produced, so it
  /// starts only once they have finished (and after earlier copies).
  util::Status EnqueueD2H(uint64_t bytes) {
    GKNN_RETURN_NOT_OK(device_->CheckTransferFault("stream D2H"));
    const double seconds =
        device_->ledger().RecordD2H(bytes, device_->config());
    if (pipelined_) {
      copy_done_ = std::max(copy_done_, compute_done_) + seconds;
    } else {
      Serialize(seconds);
    }
    return util::Status::OK();
  }

  /// Enqueues `seconds` of kernel time, dependent on all copies enqueued so
  /// far. Use with the stats of a kernel executed functionally at enqueue
  /// time (pass stats.modeled_seconds and subtract it from the device clock
  /// with MoveKernelToStream, or call EnqueueKernelSeconds directly).
  void EnqueueKernelSeconds(double seconds) {
    if (pipelined_) {
      compute_done_ = std::max(compute_done_, copy_done_) + seconds;
    } else {
      Serialize(seconds);
    }
  }

  /// Re-attributes an already-launched kernel to this stream: Launch()
  /// charged the device clock synchronously, so the charge is reversed and
  /// the duration placed on the stream's compute timeline instead.
  void MoveKernelToStream(const KernelStats& stats) {
    device_->AdvanceClock(-stats.modeled_seconds);
    EnqueueKernelSeconds(stats.modeled_seconds);
  }

  /// Completes the pipeline: returns the end-to-end modeled duration and
  /// charges it to the device clock. Resets the stream for reuse.
  double Synchronize() {
    const double total = std::max(copy_done_, compute_done_);
    device_->AdvanceClock(total);
    copy_done_ = 0;
    compute_done_ = 0;
    return total;
  }

 private:
  void AddCopy(double seconds) {
    if (pipelined_) {
      copy_done_ += seconds;
    } else {
      Serialize(seconds);
    }
  }

  void Serialize(double seconds) {
    const double t = std::max(copy_done_, compute_done_) + seconds;
    copy_done_ = compute_done_ = t;
  }

  Device* device_;
  bool pipelined_;
  double copy_done_ = 0;
  double compute_done_ = 0;
};

/// Uploads host data into `buf` through a stream: the bytes move eagerly
/// (so later kernels see them) while the modeled time lands on the stream's
/// copy-engine timeline instead of the device clock. The fault check runs
/// before the copy, so a failed async upload moves nothing.
template <typename T>
util::Status UploadAsync(Stream* stream, DeviceBuffer<T>* buf, const T* src,
                         size_t n, size_t offset = 0) {
  GKNN_DCHECK(buf->allocated());
  GKNN_CHECK(offset + n <= buf->size()) << "device buffer overflow";
  // Enqueue first: EnqueueH2D carries the fault check, and recording the
  // modeled time before the eager memcpy is equivalent on the timeline.
  GKNN_RETURN_NOT_OK(stream->EnqueueH2D(n * sizeof(T)));
  std::copy(src, src + n, buf->device_span().begin() + offset);
  return util::Status::OK();
}

}  // namespace gknn::gpusim

#endif  // GKNN_GPUSIM_STREAM_H_
