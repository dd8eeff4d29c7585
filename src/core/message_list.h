#ifndef GKNN_CORE_MESSAGE_LIST_H_
#define GKNN_CORE_MESSAGE_LIST_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/lockdep.h"
#include "util/logging.h"

namespace gknn::core {

inline constexpr uint32_t kInvalidBucket =
    std::numeric_limits<uint32_t>::max();

/// A message bucket (paper §III-C: zeta = <A_m, n, t, p_n>): a fixed
/// capacity array of messages, the time of its newest message, and a link
/// to the next bucket.
struct Bucket {
  std::vector<Message> messages;  // at most delta_b entries
  double latest_time = 0;
  uint32_t next = kInvalidBucket;
};

/// Pool allocator for buckets. Buckets are recycled rather than freed so
/// steady-state update ingestion performs no heap allocation, and so the
/// index can report its message-list memory exactly (Fig. 6).
///
/// Thread-safety: Alloc/AllocMany/FreeAll are internally synchronized so
/// concurrent cleaning passes over disjoint cells (docs/CONCURRENCY.md)
/// can allocate simultaneously; each call takes the pool lock once.
/// Storage is a chain of geometrically growing chunks
/// behind release-published atomic pointers: growth never relocates
/// existing buckets, and `bucket(id)` is a wait-free index (bit math plus
/// one acquire load) so the hot cleaning loops never touch the pool lock.
/// Bucket *contents* are not protected here — a bucket belongs to exactly
/// one cell's list, and the owning cell's clean stripe lock (or the
/// server's exclusive update lock) serializes access to it. MemoryBytes
/// reads bucket capacities and must only run while list mutations are
/// excluded (the server snapshots hold the exclusive lock).
class BucketArena {
 public:
  explicit BucketArena(uint32_t delta_b) : delta_b_(delta_b) {}

  ~BucketArena() {
    for (auto& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }

  BucketArena(const BucketArena&) = delete;
  BucketArena& operator=(const BucketArena&) = delete;

  uint32_t delta_b() const { return delta_b_; }

  /// Returns an empty bucket's index. Physical storage grows on demand up
  /// to the delta_b logical capacity, so a bucket holding two messages
  /// costs two messages of memory (the paper's space analysis counts
  /// cached messages, O(f_Delta * |O|), not reserved slots).
  uint32_t Alloc() {
    uint32_t id;
    AllocMany({&id, 1});
    return id;
  }

  /// Fills `ids` with empty buckets under one acquisition of the pool lock
  /// (a cleaning batch takes all its lock buckets in one call). Recycles
  /// exactly like that many Alloc calls in a row.
  void AllocMany(std::span<uint32_t> ids) {
    {
      util::lockdep::MutexLock lock(mu_);
      for (uint32_t& id : ids) {
        if (!free_list_.empty()) {
          id = free_list_.back();
          free_list_.pop_back();
          continue;
        }
        id = num_buckets_;
        const uint32_t chunk = ChunkOf(id);
        if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
          chunks_[chunk].store(new Bucket[ChunkSize(chunk)],
                               std::memory_order_release);
        }
        ++num_buckets_;
      }
    }
    // The slots are now exclusively ours and chunks never move, so the
    // reset needs no lock.
    for (uint32_t id : ids) Reset(id);
  }

  /// Returns `ids` to the pool under one acquisition of the pool lock.
  void FreeAll(std::span<const uint32_t> ids) {
    if (ids.empty()) return;
    util::lockdep::MutexLock lock(mu_);
    free_list_.insert(free_list_.end(), ids.begin(), ids.end());
  }

  /// Empties a bucket the caller owns (a fresh one, or one it is about to
  /// reuse), keeping its message storage.
  void Reset(uint32_t id) {
    Bucket& b = bucket(id);
    b.messages.clear();
    b.latest_time = 0;
    b.next = kInvalidBucket;
  }

  /// Stable reference to a bucket, wait-free: any id obtained from Alloc
  /// (directly or through a list head published under a stripe lock) sees
  /// its chunk pointer via the release store that preceded the id's
  /// existence.
  Bucket& bucket(uint32_t id) {
    const uint32_t adjusted = id + kFirstChunkSize;
    const uint32_t high =
        31 - static_cast<uint32_t>(std::countl_zero(adjusted));
    const uint32_t chunk = high - kFirstChunkLog2;
    GKNN_DCHECK(chunk < kNumChunks);
    if (chunk >= kNumChunks) __builtin_unreachable();
    return chunks_[chunk].load(
        std::memory_order_acquire)[adjusted - (1u << high)];
  }
  const Bucket& bucket(uint32_t id) const {
    return const_cast<BucketArena*>(this)->bucket(id);
  }

  uint32_t num_buckets() const {
    util::lockdep::MutexLock lock(mu_);
    return num_buckets_;
  }
  uint32_t num_free() const {
    util::lockdep::MutexLock lock(mu_);
    return static_cast<uint32_t>(free_list_.size());
  }

  /// Bytes held by all buckets (live and pooled). Requires mutation
  /// quiescence (see class comment).
  uint64_t MemoryBytes() const {
    util::lockdep::MutexLock lock(mu_);
    uint64_t bytes = uint64_t{num_buckets_} * sizeof(Bucket) +
                     free_list_.size() * sizeof(uint32_t);
    for (uint32_t id = 0; id < num_buckets_; ++id) {
      bytes += bucket(id).messages.capacity() * sizeof(Message);
    }
    return bytes;
  }

 private:
  // Chunk c holds kFirstChunkSize << c buckets, so 23 chunks cover every
  // representable id while keeping the smallest allocation at 512.
  static constexpr uint32_t kFirstChunkLog2 = 9;
  static constexpr uint32_t kFirstChunkSize = 1u << kFirstChunkLog2;
  static constexpr uint32_t kNumChunks = 32 - kFirstChunkLog2;

  static uint32_t ChunkOf(uint32_t id) {
    const uint32_t adjusted = id + kFirstChunkSize;
    return 31 - static_cast<uint32_t>(std::countl_zero(adjusted)) -
           kFirstChunkLog2;
  }
  static uint32_t ChunkSize(uint32_t chunk) {
    return kFirstChunkSize << chunk;
  }

  uint32_t delta_b_;
  /// core.arena in the lock order: taken under the clean stripe locks
  /// (once per batch to allocate its lock buckets, once to free what
  /// commit did not reuse) and under the server's exclusive drain
  /// (appends); never held across another acquisition.
  mutable util::lockdep::Mutex mu_{util::lockdep::kCoreArenaClass};
  uint32_t num_buckets_ = 0;
  std::array<std::atomic<Bucket*>, kNumChunks> chunks_ = {};
  std::vector<uint32_t> free_list_;
};

/// The per-cell message list (paper §III-C): a chain of buckets with head
/// (p_h), tail (p_t), and lock (p_l) pointers. Buckets strictly before p_l
/// are locked for GPU cleaning; new messages keep appending at the tail,
/// which is at or after p_l.
///
/// Not internally synchronized: a list is protected by its cell's clean
/// stripe lock in MessageCleaner, or by the server's exclusive update
/// lock for Append (docs/CONCURRENCY.md).
class MessageList {
 public:
  bool empty() const { return head_ == kInvalidBucket; }
  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }
  uint32_t lock_boundary() const { return lock_; }
  bool locked() const { return lock_ != kInvalidBucket; }
  uint32_t num_messages() const { return num_messages_; }

  /// True when the list holds exactly the result of its last cleaning pass
  /// (one latest message per object, nothing appended since). Such a list
  /// can be served to a query without another GPU round trip.
  bool compacted() const { return compacted_; }

  /// Appends a message at the tail, opening a new bucket when the tail is
  /// full (Algorithm 1's append).
  void Append(BucketArena* arena, const Message& m) {
    if (tail_ == kInvalidBucket ||
        arena->bucket(tail_).messages.size() >= arena->delta_b()) {
      const uint32_t fresh = arena->Alloc();
      if (tail_ == kInvalidBucket) {
        head_ = tail_ = fresh;
      } else {
        arena->bucket(tail_).next = fresh;
        tail_ = fresh;
      }
    }
    Bucket& b = arena->bucket(tail_);
    b.messages.push_back(m);
    // Freshness stamp is the max, not the last: callers like the striped
    // server inbox only guarantee per-object chronological order, so a
    // cross-object append may carry an older timestamp — and expiry must
    // only drop a bucket when *every* message in it is stale.
    b.latest_time = std::max(b.latest_time, m.time);
    ++num_messages_;
    compacted_ = false;
  }

  /// Begins a cleaning pass (paper §IV-B1): links `fresh`, an empty
  /// bucket the caller allocated, at the tail and points p_l at it. The
  /// locked buckets are the chain from head() up to lock_boundary(), in
  /// chronological order; the caller filters expired buckets and ships the
  /// rest to the GPU. Must not be called on a list that is already locked.
  void LockForCleaning(BucketArena* arena, uint32_t fresh) {
    GKNN_DCHECK(!locked());
    if (tail_ == kInvalidBucket) {
      head_ = tail_ = fresh;
    } else {
      arena->bucket(tail_).next = fresh;
      tail_ = fresh;
    }
    lock_ = fresh;
  }

  /// Aborts a cleaning pass begun by LockForCleaning, restoring the list
  /// to its pre-lock shape: when the fresh bucket linked by
  /// LockForCleaning is still empty and still the tail (nothing arrived
  /// while the aborted cleaning ran), it is unlinked and returned for the
  /// caller to free; otherwise the appended messages stay, only the lock
  /// marker is dropped, and kInvalidBucket is returned. Either way no
  /// message is lost and the previously locked buckets remain chained
  /// exactly as they were — the rollback arm of the cleaner's
  /// transactional guarantee (docs/ROBUSTNESS.md).
  uint32_t AbortCleaning(BucketArena* arena) {
    GKNN_DCHECK(locked());
    const uint32_t lock_bucket = lock_;
    lock_ = kInvalidBucket;
    if (!arena->bucket(lock_bucket).messages.empty() ||
        tail_ != lock_bucket) {
      return kInvalidBucket;  // messages arrived during cleaning: keep it
    }
    if (head_ == lock_bucket) {
      head_ = tail_ = kInvalidBucket;
    } else {
      uint32_t prev = head_;
      // gknn-check: allow(deadline-checkpoint): bounded walk of this
      // cell's own bucket chain under its stripe lock — the chain length
      // is capped by the cell's message count, and the rollback must
      // complete to keep the list consistent.
      while (arena->bucket(prev).next != lock_bucket) {
        prev = arena->bucket(prev).next;
      }
      arena->bucket(prev).next = kInvalidBucket;
      tail_ = prev;
    }
    return lock_bucket;
  }

  /// Completes a cleaning pass: the locked prefix is replaced by
  /// `compacted` (the latest message of every object still in this cell,
  /// from the result table R, kept in order), and the buckets appended
  /// during cleaning are preserved after it. The compacted prefix is built
  /// in `spares`, buckets the caller owns and no list references once
  /// this call returns (the cleaner passes the list's own locked buckets,
  /// which always suffice: R holds at most one message per shipped
  /// message). Returns the spares left unused, for the caller to free.
  std::span<const uint32_t> ReplaceLockedPrefix(
      BucketArena* arena, std::span<const Message> compacted,
      std::span<const uint32_t> spares) {
    GKNN_DCHECK(locked());
    // Messages in the suffix (from p_l onward) stay; count them.
    uint32_t suffix_messages = 0;
    for (uint32_t b = lock_; b != kInvalidBucket; b = arena->bucket(b).next) {
      suffix_messages += static_cast<uint32_t>(arena->bucket(b).messages.size());
    }
    const size_t delta_b = arena->delta_b();
    const size_t used = (compacted.size() + delta_b - 1) / delta_b;
    GKNN_CHECK(used <= spares.size())
        << compacted.size() << " compacted messages need " << used
        << " buckets, only " << spares.size() << " spare";
    // Build the compacted prefix back to front, so each bucket links to
    // the one after it; the last links to p_l.
    uint32_t next = lock_;
    for (size_t i = used; i-- > 0;) {
      const uint32_t id = spares[i];
      arena->Reset(id);
      Bucket& b = arena->bucket(id);
      const auto first = compacted.begin() + i * delta_b;
      const auto last = compacted.begin() + std::min(compacted.size(),
                                                     (i + 1) * delta_b);
      b.messages.assign(first, last);
      // Compacted messages are grouped by object, not time-ordered, so the
      // bucket's freshness stamp must be the max (expiry only drops a
      // bucket when *every* message in it is stale).
      for (auto it = first; it != last; ++it) {
        b.latest_time = std::max(b.latest_time, it->time);
      }
      b.next = next;
      next = id;
    }
    head_ = next;
    // tail_ unchanged (it is at or after lock_).
    num_messages_ = static_cast<uint32_t>(compacted.size()) + suffix_messages;
    lock_ = kInvalidBucket;
    // The list is in canonical compacted form unless messages arrived
    // while the cleaning was in flight.
    compacted_ = suffix_messages == 0;
    return spares.subspan(used);
  }

 private:
  uint32_t head_ = kInvalidBucket;
  uint32_t tail_ = kInvalidBucket;
  uint32_t lock_ = kInvalidBucket;
  uint32_t num_messages_ = 0;
  bool compacted_ = false;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_MESSAGE_LIST_H_
