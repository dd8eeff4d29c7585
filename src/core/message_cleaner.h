#ifndef GKNN_CORE_MESSAGE_CLEANER_H_
#define GKNN_CORE_MESSAGE_CLEANER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include <memory>

#include "core/message_list.h"
#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/device_buffer.h"
#include "gpusim/device_set.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/result.h"

namespace gknn::core {

/// GPU message cleaning (paper §IV, Algorithms 2 and 3).
///
/// Given a set of cells, the cleaner:
///  1. locks each cell's message list and discards buckets whose newest
///     message predates t_now - t_Delta (preprocessing, §IV-B1);
///  2. ships the remaining buckets to the device in pipelined chunks
///     (§V-A);
///  3. runs GPU_X_Shuffle — one thread per bucket, bundles of 2^eta
///     threads deduplicating via butterfly shuffles, then at most mu(eta)
///     compare-and-write attempts into the intermediate table T (§IV-C);
///  4. runs GPU_Collect — one thread per object reducing T into the final
///     table R — and copies R back to the host;
///  5. replaces each cleaned list's locked prefix with its compacted
///     messages (one latest message per object still in the cell).
///
/// Thread-safety (docs/CONCURRENCY.md): Clean/CleanCpu may be called from
/// concurrent query threads. Each batch first acquires the clean stripe
/// locks covering its cells, in ascending stripe order (deadlock-free),
/// and holds them through commit or rollback, so two batches over
/// disjoint stripes proceed in parallel while two racing on one cell
/// serialize — the loser then finds the cell already compacted inside
/// Preprocess (the double-checked skip) and serves it from the host
/// without duplicating the clean. The device phase serializes on an
/// internal per-device mutex because each device's staging buffers (L.A,
/// T, R) persist across batches; built over a DeviceSet, batches placed
/// on *different* devices overlap their device phases freely while the
/// stripe locks still guarantee clean-once per cell.
class MessageCleaner {
 public:
  struct Options {
    uint32_t delta_b = 128;
    uint32_t eta = 5;
    double t_delta = 10.0;
    uint32_t transfer_chunk_buckets = 64;
    /// Ablations (see GGridOptions): disable the butterfly shuffle
    /// (falling back to 2^eta brute-force write rounds) or the pipelined
    /// transfer (falling back to blocking copies).
    bool use_x_shuffle = true;
    bool pipelined_transfer = true;
  };

  struct Outcome {
    /// Latest message of every object whose newest record in the cleaned
    /// cells is a real location (tombstone-latest objects are omitted:
    /// they have moved to a cell outside this batch). `cell` is set.
    std::vector<Message> latest;
    uint32_t cells_cleaned = 0;
    /// Cells answered from their host-side compacted lists without any
    /// device work (nothing new arrived since their last cleaning).
    uint32_t cells_served_compacted = 0;
    uint32_t buckets_shipped = 0;
    uint32_t buckets_expired = 0;
    uint32_t messages_shipped = 0;
    /// End-to-end modeled device time of the pipelined transfer + kernels.
    double pipeline_seconds = 0;
  };

  /// Single-device form: wraps `device` in an internal singleton set.
  MessageCleaner(gpusim::Device* device, const Options& options);

  /// Multi-device form: one staging context (buffers + device mutex) per
  /// device of the set, so concurrent batches placed on distinct devices
  /// run their device phases in parallel. The set must outlive the
  /// cleaner.
  MessageCleaner(gpusim::DeviceSet* devices, const Options& options);

  const Options& options() const { return options_; }

  /// Points the cleaner at an observability registry: every Clean/CleanCpu
  /// outcome is folded into `gknn_clean_*` counters and the pipeline-time
  /// histogram, and rollbacks are counted. Null (the default) disables
  /// recording.
  void SetMetricRegistry(obs::MetricRegistry* registry);

  /// Cleans the message lists of `cells` in one batch. Cells whose list is
  /// already locked are skipped (paper: "if the two pointers are pointing
  /// to different buckets, we can skip L safely").
  ///
  /// `gknn_clean_batches_total` counts only batches that performed
  /// compaction work (shipped or expired at least one bucket); a batch
  /// fully served from compacted lists does not increment it, which is
  /// what makes "exactly one clean per dirty epoch" observable.
  ///
  /// Transactional: a device error (injected fault, memory exhaustion)
  /// rolls every touched list back to exactly its pre-clean state — no
  /// compaction applied, no bucket freed, no message lost — and returns
  /// the error. A retry or a CleanCpu afterwards sees every message.
  ///
  /// `device_index` selects which device of the set runs the device phase
  /// (the scheduler's lease index); the result is identical whichever
  /// device executes it.
  ///
  /// `deadline`, when non-null, is polled between pipelined device chunks;
  /// on expiry the batch rolls back (same transactional guarantee as a
  /// device error) and DeadlineExceeded is returned.
  util::Result<Outcome> Clean(std::span<const CellId> cells, double t_now,
                              BucketArena* arena,
                              std::vector<MessageList>* lists,
                              uint32_t device_index = 0,
                              const util::Deadline* deadline = nullptr);

  /// Host-only cleaning: identical semantics and outcome to Clean (same
  /// survivors, same expiry, same list rewrites) computed by a sequential
  /// fold, with zero device work. This is the degraded-mode path queries
  /// fall back to when the device is unavailable.
  util::Result<Outcome> CleanCpu(std::span<const CellId> cells, double t_now,
                                 BucketArena* arena,
                                 std::vector<MessageList>* lists);

 private:
  /// One locked cell of an in-flight cleaning batch. Expired buckets are
  /// only *recorded* during preprocessing and freed at commit: BucketArena
  /// recycles freed ids, so freeing one mid-batch would let a later cell's
  /// lock bucket clobber a chain the rollback still needs intact.
  struct LockedCell {
    CellId cell;
    std::vector<uint32_t> shipped_buckets;  // live buckets sent to the GPU
    std::vector<uint32_t> expired_buckets;  // stale buckets, freed on commit
  };

  /// The host-side state of a cleaning batch between its phases.
  struct Plan {
    std::vector<LockedCell> locked;
    /// Copies of every shipped bucket's messages, cell id attached — the
    /// flattened L.A. The device phase reads these copies, so a mid-phase
    /// failure cannot have corrupted the lists.
    std::vector<std::vector<Message>> host_buckets;
    Outcome outcome;  // counters + compacted-fast-path results
  };

  /// Phase 1 (§IV-B1): lock lists, classify buckets, serve compacted
  /// cells from the host. Mutates lists only via LockForCleaning, which
  /// AbortCleaning reverts exactly.
  Plan Preprocess(std::span<const CellId> cells, double t_now,
                  BucketArena* arena, std::vector<MessageList>* lists);

  /// One device's staging state: the persistent buffers (L.A, T, R) plus
  /// the mutex serializing that device's compaction phase. Batches placed
  /// on different contexts never share device memory, so they overlap.
  struct DeviceCtx {
    explicit DeviceCtx(gpusim::Device* d) : device(d) {}
    gpusim::Device* device;
    /// Serializes this device's phase: the staging buffers below are
    /// reused across batches and must not see two batches at once.
    util::lockdep::Mutex device_mu{util::lockdep::kCleanerDeviceClass};
    gpusim::DeviceBuffer<Message> device_messages;  // L.A, delta_b-strided
    gpusim::DeviceBuffer<Message> table_t;          // intermediate results
    gpusim::DeviceBuffer<Message> table_r;          // final results
  };

  /// Phase 2, GPU (§IV-C): upload + GPU_X_Shuffle + GPU_Collect on
  /// `ctx`'s device. Returns table R — the newest message per object,
  /// tombstones included — or the first device error (partial device
  /// state is discarded by rollback). Caller holds ctx->device_mu.
  util::Result<std::vector<Message>> CompactOnDevice(
      Plan* plan, DeviceCtx* ctx, const util::Deadline* deadline);

  /// Phase 2, host fallback: the same R computed by a sequential fold
  /// (newest seq per object), no device involved.
  std::vector<Message> CompactOnHost(const Plan& plan) const;

  /// Phase 3: rewrite the locked prefixes from R, free shipped + expired
  /// buckets, fill outcome.latest. Only host data structures; cannot fail.
  void Commit(Plan* plan, std::span<const Message> table_r,
              BucketArena* arena, std::vector<MessageList>* lists);

  /// Abort arm: undo every LockForCleaning; frees nothing else.
  void Rollback(const Plan& plan, BucketArena* arena,
                std::vector<MessageList>* lists);

  /// Grows a persistent device buffer on `device` to at least `needed`
  /// elements. Buffers are reused across Clean calls: steady-state
  /// cleaning performs no device allocation. `name` labels the buffer in
  /// hazard reports.
  util::Status EnsureCapacity(gpusim::Device* device,
                              gpusim::DeviceBuffer<Message>* buffer,
                              size_t needed, std::string_view name);

  /// Folds one finished batch into the registry (no-op without one).
  void RecordOutcome(const Outcome& outcome, bool on_device);

  /// Locks the clean stripes covering `cells` as one ranked multi-lock in
  /// ascending stripe order (released when the MultiLock is destroyed).
  /// Lockdep asserts the ascending order on every acquisition
  /// (docs/LOCKDEP.md).
  util::lockdep::MultiLock LockCellStripes(std::span<const CellId> cells);

  /// Owned only in the single-device form (wraps the caller's device).
  std::unique_ptr<gpusim::DeviceSet> owned_set_;
  gpusim::DeviceSet* devices_;
  Options options_;
  uint32_t mu_;  // mu(eta), precomputed

  /// Striped per-cell clean locks: stripe = cell % kCleanStripes. Held
  /// from Preprocess through Commit/Rollback so a cell is cleaned exactly
  /// once per dirty epoch even under racing readers. Stripe i carries
  /// lockdep instance key i (nestable cleaner.stripe class). A query's
  /// single batch can cover every stripe while its thread also holds the
  /// server and device locks; ThreadSanitizer's deadlock detector tracks
  /// at most 64 locks held at once by one thread, so the stripe count
  /// stays well below that.
  static constexpr size_t kCleanStripes = 32;
  mutable util::lockdep::StripedMutexes<kCleanStripes> clean_stripes_{
      util::lockdep::kCleanerStripeClass};

  /// One staging context per device of the set (index-aligned with it).
  std::vector<std::unique_ptr<DeviceCtx>> contexts_;

  // Observability handles, resolved once in SetMetricRegistry. All null
  // until then.
  obs::Counter* cells_cleaned_total_ = nullptr;
  obs::Counter* cells_served_compacted_total_ = nullptr;
  obs::Counter* buckets_shipped_total_ = nullptr;
  obs::Counter* buckets_expired_total_ = nullptr;
  obs::Counter* messages_shipped_total_ = nullptr;
  obs::Counter* messages_deduped_total_ = nullptr;
  obs::Counter* clean_batches_total_ = nullptr;
  obs::Counter* clean_cpu_batches_total_ = nullptr;
  obs::Counter* rollbacks_total_ = nullptr;
  obs::Histogram* pipeline_seconds_ = nullptr;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_MESSAGE_CLEANER_H_
