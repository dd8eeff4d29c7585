#include "core/message_cleaner.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "core/mu.h"
#include "gpusim/device_buffer.h"
#include "gpusim/stream.h"
#include "gpusim/warp.h"
#include "util/logging.h"

namespace gknn::core {

using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::LaunchWarps;
using gpusim::Stream;
using gpusim::ThreadCtx;
using gpusim::WarpCtx;

MessageCleaner::MessageCleaner(Device* device, const Options& options)
    : owned_set_(std::make_unique<gpusim::DeviceSet>(
          std::vector<Device*>{device})),
      devices_(owned_set_.get()),
      options_(options),
      mu_(Mu(options.eta)) {
  GKNN_CHECK(options_.delta_b > 0);
  contexts_.push_back(std::make_unique<DeviceCtx>(device));
}

MessageCleaner::MessageCleaner(gpusim::DeviceSet* devices,
                               const Options& options)
    : devices_(devices), options_(options), mu_(Mu(options.eta)) {
  GKNN_CHECK(options_.delta_b > 0);
  for (uint32_t i = 0; i < devices_->size(); ++i) {
    contexts_.push_back(std::make_unique<DeviceCtx>(devices_->device_ptr(i)));
  }
}

void MessageCleaner::SetMetricRegistry(obs::MetricRegistry* registry) {
  if (registry == nullptr) return;
  cells_cleaned_total_ = registry->GetCounter("gknn_clean_cells_total");
  cells_served_compacted_total_ =
      registry->GetCounter("gknn_clean_cells_served_compacted_total");
  buckets_shipped_total_ =
      registry->GetCounter("gknn_clean_buckets_shipped_total");
  buckets_expired_total_ =
      registry->GetCounter("gknn_clean_buckets_expired_total");
  messages_shipped_total_ =
      registry->GetCounter("gknn_clean_messages_shipped_total");
  messages_deduped_total_ =
      registry->GetCounter("gknn_clean_messages_deduped_total");
  clean_batches_total_ =
      registry->GetCounter("gknn_clean_batches_total{path=\"gpu\"}");
  clean_cpu_batches_total_ =
      registry->GetCounter("gknn_clean_batches_total{path=\"cpu\"}");
  rollbacks_total_ = registry->GetCounter("gknn_clean_rollbacks_total");
  pipeline_seconds_ =
      registry->GetHistogram("gknn_clean_pipeline_seconds");
}

void MessageCleaner::RecordOutcome(const Outcome& outcome, bool on_device) {
  if (cells_cleaned_total_ == nullptr) return;
  cells_cleaned_total_->Add(outcome.cells_cleaned);
  cells_served_compacted_total_->Add(outcome.cells_served_compacted);
  buckets_shipped_total_->Add(outcome.buckets_shipped);
  buckets_expired_total_->Add(outcome.buckets_expired);
  messages_shipped_total_->Add(outcome.messages_shipped);
  // Deduplication: every shipped message minus the one-per-object
  // survivors the batch kept.
  if (outcome.messages_shipped > outcome.latest.size()) {
    messages_deduped_total_->Add(outcome.messages_shipped -
                                 outcome.latest.size());
  }
  // A batch counts only when it performed compaction work. Batches fully
  // answered from compacted lists (the double-checked skip under the clean
  // stripe locks) are visible through cells_served_compacted instead —
  // this is what lets the clean-once property test assert "exactly one
  // batch per dirty epoch" no matter how many readers race.
  if (outcome.buckets_shipped > 0 || outcome.buckets_expired > 0) {
    (on_device ? clean_batches_total_ : clean_cpu_batches_total_)
        ->Increment();
    pipeline_seconds_->Observe(outcome.pipeline_seconds);
  }
}

util::lockdep::MultiLock MessageCleaner::LockCellStripes(
    std::span<const CellId> cells) {
  // Ascending, deduplicated stripe order makes concurrent batches with
  // overlapping stripe sets acquire in one global order: no deadlock. The
  // stripes acquire as one ranked multi-lock, and lockdep's
  // ascending-stripe rule asserts the order on every acquisition — an
  // unsorted or duplicated set is reported as a violation rather than
  // left as a latent ABBA window. A bit mask yields the set in that order.
  uint32_t mask = 0;
  for (CellId cell : cells) mask |= 1u << (cell % kCleanStripes);
  std::vector<util::lockdep::Mutex*> mutexes;
  mutexes.reserve(static_cast<size_t>(std::popcount(mask)));
  for (; mask != 0; mask &= mask - 1) {
    mutexes.push_back(&clean_stripes_[std::countr_zero(mask)]);
  }
  return util::lockdep::MultiLock(std::move(mutexes));
}

util::Status MessageCleaner::EnsureCapacity(Device* device,
                                            DeviceBuffer<Message>* buffer,
                                            size_t needed,
                                            std::string_view name) {
  if (buffer->size() >= needed) return util::Status::OK();
  const size_t capacity = std::max(needed, buffer->size() * 2);
  GKNN_ASSIGN_OR_RETURN(
      *buffer, DeviceBuffer<Message>::Allocate(device, capacity, name));
  return util::Status::OK();
}

// ---- Phase 1: preprocessing (lock lists, classify buckets) ----------------
MessageCleaner::Plan MessageCleaner::Preprocess(
    std::span<const CellId> cells, double t_now, BucketArena* arena,
    std::vector<MessageList>* lists) {
  Plan plan;
  Outcome& outcome = plan.outcome;
  for (CellId cell : cells) {
    MessageList& list = (*lists)[cell];
    if (list.locked()) continue;  // under processing: skip safely
    ++outcome.cells_cleaned;
    if (list.num_messages() == 0) {
      // No cached messages means no objects in this cell (an occupied
      // cell always retains at least the compacted latest message of each
      // object): nothing to lock, ship, or rewrite.
      continue;
    }
    if (list.compacted()) {
      // The list already holds exactly one latest message per object from
      // a previous cleaning and nothing arrived since: serve it from the
      // host copy without a device round trip — unless a bucket has aged
      // past t_Delta (possible only if an object stopped reporting, a
      // contract violation the full path resolves by expiry).
      bool fresh = true;
      for (uint32_t b = list.head(); b != kInvalidBucket;
           b = arena->bucket(b).next) {
        const Bucket& bucket = arena->bucket(b);
        if (!bucket.messages.empty() &&
            bucket.latest_time < t_now - options_.t_delta) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        for (uint32_t b = list.head(); b != kInvalidBucket;
             b = arena->bucket(b).next) {
          for (const Message& m : arena->bucket(b).messages) {
            outcome.latest.push_back(m);
            outcome.latest.back().cell = cell;
          }
        }
        ++outcome.cells_served_compacted;
        continue;
      }
    }
    plan.locked.push_back(LockedCell{cell, 0, 0});
  }

  // One arena acquisition for the lock buckets of every cell.
  std::vector<uint32_t> lock_buckets(plan.locked.size());
  arena->AllocMany(lock_buckets);
  size_t kept = 0;
  size_t repeats = 0;
  for (size_t i = 0; i < plan.locked.size(); ++i) {
    LockedCell& lc = plan.locked[kept];
    lc = plan.locked[i];
    MessageList& list = (*lists)[lc.cell];
    if (list.locked()) {
      // A repeat of a cell locked earlier in this batch: skipped like any
      // locked list, its lock bucket unused.
      --outcome.cells_cleaned;
      lock_buckets[repeats++] = lock_buckets[i];
      continue;
    }
    ++kept;
    list.LockForCleaning(arena, lock_buckets[i]);
    lc.first_bucket = static_cast<uint32_t>(plan.buckets.size());
    for (uint32_t b = list.head(); b != list.lock_boundary();
         b = arena->bucket(b).next) {
      plan.buckets.push_back(b);
      const Bucket& bucket = arena->bucket(b);
      if (bucket.messages.empty() ||
          bucket.latest_time < t_now - options_.t_delta) {
        // Every message in the bucket predates t_now - t_Delta: the
        // sender contract (one update per t_Delta) guarantees newer
        // messages exist, so the bucket is discarded wholesale — at
        // commit time; releasing it now would let the arena recycle it
        // into another batch's lock bucket, corrupting the chain a
        // rollback must restore.
        ++outcome.buckets_expired;
        continue;
      }
      for (const Message& m : bucket.messages) {
        plan.staged.push_back(m);
        plan.staged.back().cell = lc.cell;
      }
      plan.staged_offsets.push_back(
          static_cast<uint32_t>(plan.staged.size()));
    }
    lc.end_bucket = static_cast<uint32_t>(plan.buckets.size());
  }
  plan.locked.resize(kept);
  // Never linked into a list, so safe to release before commit.
  arena->FreeAll(std::span(lock_buckets).first(repeats));
  outcome.buckets_shipped = plan.num_shipped();
  outcome.messages_shipped = static_cast<uint32_t>(plan.staged.size());
  return plan;
}

// ---- Object index: open addressing with epoch-stamped slots ---------------
void MessageCleaner::ObjectIndex::Reset(size_t max_objects) {
  size_ = 0;
  // Probe only the first `capacity` slots, sized for this batch, so a
  // small batch stays cache-resident after a large one grew the storage.
  const size_t capacity = std::bit_ceil(std::max<size_t>(2 * max_objects, 16));
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<uint32_t>(std::countr_zero(capacity));
  if (slots_.size() < capacity) {
    slots_.assign(capacity, Slot{});
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // The stamp wrapped: clear the stamps the new epoch could collide with.
    for (Slot& slot : slots_) slot.epoch = 0;
    epoch_ = 1;
  }
}

size_t MessageCleaner::ObjectIndex::Home(ObjectId object) const {
  // Fibonacci hashing: the top bits of a multiplicative hash.
  return static_cast<size_t>((uint64_t{object} * 0x9E3779B97F4A7C15ull) >>
                             shift_);
}

uint32_t MessageCleaner::ObjectIndex::Insert(ObjectId object) {
  // At most half of the probed slots fill, so a free one lies within a lap.
  for (size_t probe = 0, i = Home(object); probe <= mask_;
       ++probe, i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot = Slot{object, size_, epoch_};
      return size_++;
    }
    if (slot.object == object) return slot.index;
  }
  GKNN_CHECK(false) << "object index full: Reset sized it too small";
  return 0;
}

uint32_t MessageCleaner::ObjectIndex::Find(ObjectId object) const {
  for (size_t probe = 0, i = Home(object); probe <= mask_;
       ++probe, i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.epoch != epoch_) break;  // an empty slot ends the probe chain
    if (slot.object == object) return slot.index;
  }
  GKNN_CHECK(false) << "object " << object << " not in this batch's index";
  return 0;
}

// ---- Phase 2 (GPU): upload + GPU_X_Shuffle + GPU_Collect ------------------
util::Result<std::vector<Message>> MessageCleaner::CompactOnDevice(
    Plan* plan, DeviceCtx* ctx, const util::Deadline* deadline) {
  Device* const device = ctx->device;
  const Plan& batch = *plan;

  // Dense object index over every object appearing in the batch.
  ObjectIndex& object_index = ctx->object_index;
  object_index.Reset(batch.staged.size());
  for (const Message& m : batch.staged) object_index.Insert(m.object);
  const uint32_t num_objects = object_index.size();
  GKNN_DCHECK(num_objects > 0);

  const uint32_t width = 1u << options_.eta;
  const uint32_t n_buckets = batch.num_shipped();
  const uint32_t n_bundles = (n_buckets + width - 1) / width;

  // ---- Device memory (tables T and R, §IV-B2) ----------------------------
  GKNN_RETURN_NOT_OK(EnsureCapacity(
      device, &ctx->device_messages,
      static_cast<size_t>(n_buckets) * options_.delta_b, "L.A"));
  const size_t t_capacity = ctx->table_t.size();
  GKNN_RETURN_NOT_OK(EnsureCapacity(
      device, &ctx->table_t, static_cast<size_t>(num_objects) * n_bundles,
      "T"));
  if (ctx->table_t.size() != t_capacity) ctx->table_t_dirty = true;
  GKNN_RETURN_NOT_OK(EnsureCapacity(device, &ctx->table_r, num_objects, "R"));

  // gknn-lint: allow(device-span): host-side staging writes into L.A
  // between the chunk's EnqueueH2D and its kernel; kernels use the
  // checked Load.
  auto msg_span = ctx->device_messages.device_span();
  // T must start all-null. GPU_Collect leaves it that way, so the
  // device-side memset kernel (one entry per thread) runs only over a
  // freshly grown T or after a batch that failed midway.
  if (ctx->table_t_dirty) {
    GKNN_RETURN_NOT_OK(
        device
            ->Launch("GPU_Memset_T",
                     static_cast<uint32_t>(ctx->table_t.size()),
                     [ctx](ThreadCtx& thread) {
                       ctx->table_t.Store(thread, thread.thread_id,
                                          kNullMessage);
                       thread.CountOps(1);
                     })
            .status());
  }
  // ---- Pipelined upload + GPU_X_Shuffle (§IV-C, Alg. 3) ------------------
  Stream stream(device, options_.pipelined_transfer);
  // Chunks are rounded to whole bundles so a kernel never reads buckets
  // from a chunk that has not "arrived" yet.
  const uint32_t chunk_buckets =
      std::max(width, (options_.transfer_chunk_buckets / width) * width);

  // Checked kernel-side views of L.A and T. The hazard detector attributes
  // every access to the calling bundle; elements of T are shared only
  // *within* a bundle (each bundle owns its T column), which lockstep
  // arbitration resolves — any cross-bundle conflict is a real bug and is
  // flagged.
  auto bucket_message = [this, ctx](const WarpCtx& warp, uint32_t bucket,
                                    uint32_t i) -> Message {
    return ctx->device_messages.Load(
        warp, static_cast<size_t>(bucket) * options_.delta_b + i);
  };
  auto t_load = [ctx, n_bundles](const WarpCtx& warp, uint32_t obj_idx,
                                 uint32_t bundle) -> Message {
    return ctx->table_t.Load(
        warp, static_cast<size_t>(obj_idx) * n_bundles + bundle);
  };
  auto t_store = [ctx, n_bundles](const WarpCtx& warp, uint32_t obj_idx,
                                  uint32_t bundle, const Message& m) {
    ctx->table_t.Store(warp,
                       static_cast<size_t>(obj_idx) * n_bundles + bundle, m);
  };

  for (uint32_t first = 0; first < n_buckets; first += chunk_buckets) {
    // Per-chunk deadline checkpoint: each chunk is a bounded unit of
    // device work, so polling here bounds the whole compaction by the
    // query budget; the caller's rollback restores the lists exactly.
    if (deadline != nullptr && deadline->Expired()) {
      return util::Status::DeadlineExceeded(
          "clean: query budget exhausted between compaction chunks");
    }
    const uint32_t count = std::min(chunk_buckets, n_buckets - first);
    // Upload this chunk of buckets. Slots beyond each bucket's fill are
    // never read (the kernel carries the per-bucket counts), so no padding
    // is written.
    GKNN_RETURN_NOT_OK(stream.EnqueueH2D(static_cast<uint64_t>(count) *
                                         options_.delta_b * sizeof(Message)));
    for (uint32_t b = first; b < first + count; ++b) {
      std::copy(batch.staged.begin() + batch.staged_offsets[b],
                batch.staged.begin() + batch.staged_offsets[b + 1],
                msg_span.begin() + static_cast<size_t>(b) * options_.delta_b);
    }

    const uint32_t first_bundle = first / width;
    const uint32_t chunk_bundles = (count + width - 1) / width;
    // From the first write to T until GPU_Collect has nulled it again, a
    // failure leaves T dirty for the next batch.
    ctx->table_t_dirty = true;
    auto stats = LaunchWarps(
        device, "GPU_X_Shuffle", chunk_bundles, width,
        [this, &batch, &object_index, &bucket_message, &t_load, &t_store,
         first_bundle, width, n_buckets](WarpCtx& warp) {
          const uint32_t bundle = first_bundle + warp.warp_id();
          // Per-lane message cache Gamma (Alg. 3 line 1). The paper sizes
          // it eta, but a lane performs eta+1 cache steps per read round
          // and can therefore meet eta+1 distinct objects; capacity eta+1
          // (scoped to the round, i.e. to the message set S that Theorem 1
          // reasons about) guarantees no eviction, which the covering
          // argument of Theorem 2 silently relies on — an evicted newer
          // message could no longer suppress an older duplicate arriving
          // later on the same lane.
          std::vector<std::vector<Message>> cache(width);
          for (auto& c : cache) c.reserve(options_.eta + 1);

          std::vector<Message> m(width);
          // Rounds beyond the fullest bucket in this bundle would read only
          // null padding; the per-bucket counts are on the device, so the
          // kernel can skip them warp-uniformly.
          uint32_t max_fill = 0;
          for (uint32_t lane = 0; lane < width; ++lane) {
            const uint32_t bucket = bundle * width + lane;
            if (bucket < n_buckets) {
              max_fill = std::max(max_fill, batch.bucket_size(bucket));
            }
          }
          for (uint32_t round = max_fill; round-- > 0;) {
            for (auto& c : cache) c.clear();
            // All lanes read message `round` of their bucket (newest
            // first: Alg. 3 iterates i from delta_m - 1 down to 0).
            for (uint32_t lane = 0; lane < width; ++lane) {
              const uint32_t bucket = bundle * width + lane;
              if (bucket < n_buckets && round < batch.bucket_size(bucket)) {
                m[lane] = bucket_message(warp, bucket, round);
              } else {
                m[lane] = kNullMessage;
              }
            }
            warp.CountOpsPerLane(1);

            // Cache step (Alg. 3 lines 6-9): keep the newest message of
            // each object; upgrade an outdated in-flight message to the
            // cached newer one. Runs once on the freshly read messages and
            // once after every shuffle — eta+1 times total, matching the
            // paper's §IV-D cost statement ("each thread only needs to
            // process eta + 1 = 5 messages") and the covering argument of
            // Theorem 2, which compares messages on *arrival* at a thread,
            // including arrival via the final shuffle.
            auto cache_step = [&] {
              for (uint32_t lane = 0; lane < width; ++lane) {
                if (IsNullMessage(m[lane])) continue;
                auto& gamma = cache[lane];
                auto it = std::find_if(
                    gamma.begin(), gamma.end(), [&](const Message& g) {
                      return g.object == m[lane].object;
                    });
                if (it == gamma.end()) {
                  gamma.push_back(m[lane]);  // never exceeds eta+1 entries
                } else if (it->seq < m[lane].seq) {
                  *it = m[lane];
                } else {
                  m[lane] = *it;
                }
              }
              warp.CountOpsPerLane(options_.eta);
            };

            if (options_.use_x_shuffle) {
              cache_step();
              for (uint32_t j = 1; j <= options_.eta; ++j) {
                warp.ShflXor(m, 1u << (options_.eta - j));
                cache_step();
              }
            }

            // Step 2 (Alg. 3 lines 11-13): mu(eta) lockstep
            // compare-and-write rounds into T. Reads of all lanes happen
            // before any lane's write (SIMT), so a stale write can land
            // after a newer one; the mu repeats guarantee the newest
            // message wins because at most mu distinct messages per
            // object survive the shuffles (Theorem 1).
            // Without the shuffle, up to 2^eta distinct messages of one
            // object can still be in flight, so correctness needs a write
            // round per lane — the cost the shuffle exists to avoid.
            const uint32_t write_rounds =
                options_.use_x_shuffle ? mu_ : width;
            for (uint32_t r = 0; r < write_rounds; ++r) {
              std::vector<uint8_t> want(width, 0);
              for (uint32_t lane = 0; lane < width; ++lane) {
                if (IsNullMessage(m[lane])) continue;
                const uint32_t idx = object_index.Find(m[lane].object);
                const Message current = t_load(warp, idx, bundle);
                want[lane] =
                    IsNullMessage(current) || current.seq < m[lane].seq;
              }
              for (uint32_t lane = 0; lane < width; ++lane) {
                if (want[lane]) {
                  t_store(warp, object_index.Find(m[lane].object), bundle,
                          m[lane]);
                }
              }
              // A compare-and-write round hits the global-memory table T;
              // charge it at global-memory cost, unlike the register-file
              // shuffle and cache steps. This is the asymmetry the
              // X-shuffle exploits: eta+1 cheap hops replace almost all of
              // the expensive table writes (paper §IV-D).
              warp.CountOpsPerLane(8);
            }
          }
        });
    GKNN_RETURN_NOT_OK(stats.status());
    stream.MoveKernelToStream(*stats);
  }

  // ---- GPU_Collect — reduce T into R, one thread per object --------------
  // Each thread also nulls the T entries it read, leaving T clean for the
  // next batch at no extra launch.
  // gknn-lint: allow(device-span): host reads R only after Synchronize;
  // GPU_Collect itself writes through the checked Store.
  auto r_span = ctx->table_r.device_span();
  auto collect_stats = device->Launch(
      "GPU_Collect", num_objects, [ctx, n_bundles](ThreadCtx& thread) {
        const uint32_t idx = thread.thread_id;
        Message best = kNullMessage;
        for (uint32_t bundle = 0; bundle < n_bundles; ++bundle) {
          const size_t entry = static_cast<size_t>(idx) * n_bundles + bundle;
          const Message candidate = ctx->table_t.Load(thread, entry);
          if (IsNullMessage(candidate)) continue;
          if (IsNullMessage(best) || candidate.seq > best.seq) {
            best = candidate;
          }
          ctx->table_t.Store(thread, entry, kNullMessage);
        }
        ctx->table_r.Store(thread, idx, best);
        thread.CountOps(n_bundles);
      });
  GKNN_RETURN_NOT_OK(collect_stats.status());
  ctx->table_t_dirty = false;
  stream.MoveKernelToStream(*collect_stats);
  GKNN_RETURN_NOT_OK(
      stream.EnqueueD2H(static_cast<uint64_t>(num_objects) * sizeof(Message)));
  plan->outcome.pipeline_seconds = stream.Synchronize();

  return std::vector<Message>(r_span.begin(), r_span.begin() + num_objects);
}

bool MessageCleaner::TableTIsNull(uint32_t device_index) const {
  const DeviceCtx& ctx = *contexts_[device_index];
  // gknn-lint: allow(device-span): host-side inspection while idle.
  const auto t = ctx.table_t.device_span();
  return std::all_of(t.begin(), t.end(), IsNullMessage);
}

// ---- Phase 2 (host): the same table R by a sequential fold ----------------
std::vector<Message> MessageCleaner::CompactOnHost(const Plan& plan) const {
  ObjectIndex index_of;
  index_of.Reset(plan.staged.size());
  std::vector<Message> table_r;
  for (const Message& m : plan.staged) {
    const uint32_t idx = index_of.Insert(m.object);
    if (idx == table_r.size()) {
      table_r.push_back(m);
    } else if (table_r[idx].seq < m.seq) {
      table_r[idx] = m;
    }
  }
  return table_r;
}

// ---- Phase 3: commit — rewrite lists, free buckets ------------------------
void MessageCleaner::Commit(Plan* plan, std::span<const Message> table_r,
                            BucketArena* arena,
                            std::vector<MessageList>* lists) {
  Outcome& outcome = plan->outcome;
  const std::vector<LockedCell>& locked = plan->locked;
  // The locked cells sorted by id, to find each survivor's slot in
  // `locked`.
  std::vector<std::pair<CellId, uint32_t>> slot_of_cell(locked.size());
  for (uint32_t i = 0; i < locked.size(); ++i) {
    slot_of_cell[i] = {locked[i].cell, i};
  }
  std::sort(slot_of_cell.begin(), slot_of_cell.end());
  constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slots(table_r.size(), kNoSlot);
  // Counting pass: group R's survivors by locked cell, keeping R order
  // within a cell. Tombstones have no slot.
  std::vector<uint32_t> begin(locked.size() + 1, 0);
  for (size_t r = 0; r < table_r.size(); ++r) {
    const Message& m = table_r[r];
    GKNN_DCHECK(!IsNullMessage(m));
    if (m.IsTombstone()) continue;  // object moved outside this batch
    auto it = std::lower_bound(slot_of_cell.begin(), slot_of_cell.end(),
                               std::pair<CellId, uint32_t>{m.cell, 0});
    GKNN_DCHECK(it != slot_of_cell.end() && it->first == m.cell);
    slots[r] = it->second;
    ++begin[it->second + 1];
    outcome.latest.push_back(m);
  }
  for (size_t i = 0; i < locked.size(); ++i) begin[i + 1] += begin[i];
  std::vector<Message> grouped(begin.back());
  {
    std::vector<uint32_t> next(begin.begin(), begin.end() - 1);
    for (size_t r = 0; r < table_r.size(); ++r) {
      if (slots[r] != kNoSlot) grouped[next[slots[r]]++] = table_r[r];
    }
  }
  // Each cell's compacted prefix goes into its own locked buckets; the
  // ones left over are gathered at the front of plan->buckets (never past
  // the cell being rewritten) and freed together.
  size_t leftover = 0;
  for (uint32_t i = 0; i < locked.size(); ++i) {
    const LockedCell& lc = locked[i];
    const std::span<const uint32_t> unused =
        (*lists)[lc.cell].ReplaceLockedPrefix(
            arena,
            std::span<const Message>(grouped).subspan(
                begin[i], begin[i + 1] - begin[i]),
            std::span<const uint32_t>(plan->buckets)
                .subspan(lc.first_bucket, lc.end_bucket - lc.first_bucket));
    for (uint32_t b : unused) plan->buckets[leftover++] = b;
  }
  arena->FreeAll(std::span(plan->buckets).first(leftover));
}

void MessageCleaner::Rollback(const Plan& plan, BucketArena* arena,
                              std::vector<MessageList>* lists) {
  std::vector<uint32_t> unlinked;
  for (const LockedCell& lc : plan.locked) {
    const uint32_t b = (*lists)[lc.cell].AbortCleaning(arena);
    if (b != kInvalidBucket) unlinked.push_back(b);
  }
  arena->FreeAll(unlinked);
}

util::Result<MessageCleaner::Outcome> MessageCleaner::Clean(
    std::span<const CellId> cells, double t_now, BucketArena* arena,
    std::vector<MessageList>* lists, uint32_t device_index,
    const util::Deadline* deadline) {
  GKNN_DCHECK(device_index < contexts_.size());
  DeviceCtx& ctx =
      *contexts_[device_index < contexts_.size() ? device_index : 0];
  // Held through commit/rollback: a racing batch on an overlapping stripe
  // waits here, then finds the cells compacted inside its own Preprocess
  // (the double-checked skip) and does no duplicate work.
  const auto stripe_locks = LockCellStripes(cells);
  Plan plan = Preprocess(cells, t_now, arena, lists);
  if (plan.staged.empty()) {
    // Nothing to ship (only expired buckets, compacted serves, or empty
    // lists): commit clears the locked prefixes without device work.
    Commit(&plan, {}, arena, lists);
    RecordOutcome(plan.outcome, /*on_device=*/true);
    return std::move(plan.outcome);
  }
  // Each device's staging buffers (L.A, T, R) persist across batches;
  // batches placed on the same device serialize their device phase, while
  // batches on different devices of the set overlap.
  util::Result<std::vector<Message>> table_r = [&] {
    util::lockdep::MutexLock device_lock(ctx.device_mu);
    return CompactOnDevice(&plan, &ctx, deadline);
  }();
  if (!table_r.ok()) {
    Rollback(plan, arena, lists);
    if (rollbacks_total_ != nullptr) rollbacks_total_->Increment();
    return table_r.status();
  }
  Commit(&plan, *table_r, arena, lists);
  RecordOutcome(plan.outcome, /*on_device=*/true);
  return std::move(plan.outcome);
}

util::Result<MessageCleaner::Outcome> MessageCleaner::CleanCpu(
    std::span<const CellId> cells, double t_now, BucketArena* arena,
    std::vector<MessageList>* lists) {
  const auto stripe_locks = LockCellStripes(cells);
  Plan plan = Preprocess(cells, t_now, arena, lists);
  Commit(&plan, CompactOnHost(plan), arena, lists);
  RecordOutcome(plan.outcome, /*on_device=*/false);
  return std::move(plan.outcome);
}

}  // namespace gknn::core
