#include "core/message_list.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace gknn::core {
namespace {

Message MakeMessage(ObjectId o, uint64_t seq, double time) {
  Message m;
  m.object = o;
  m.edge = 1;
  m.offset = 0;
  m.time = time;
  m.seq = seq;
  return m;
}

std::vector<Message> AllMessages(const BucketArena& arena,
                                 const MessageList& list) {
  std::vector<Message> out;
  for (uint32_t b = list.head(); b != kInvalidBucket;
       b = arena.bucket(b).next) {
    const Bucket& bucket = arena.bucket(b);
    out.insert(out.end(), bucket.messages.begin(), bucket.messages.end());
  }
  return out;
}

// Locks `list` with a freshly allocated bucket and returns the locked
// prefix, head() up to lock_boundary().
std::vector<uint32_t> Lock(BucketArena* arena, MessageList* list) {
  list->LockForCleaning(arena, arena->Alloc());
  std::vector<uint32_t> locked;
  for (uint32_t b = list->head(); b != list->lock_boundary();
       b = arena->bucket(b).next) {
    locked.push_back(b);
  }
  return locked;
}

// A fresh set of `n` spare buckets for ReplaceLockedPrefix.
std::vector<uint32_t> Spares(BucketArena* arena, size_t n) {
  std::vector<uint32_t> spares(n);
  arena->AllocMany(spares);
  return spares;
}

TEST(BucketArenaTest, AllocatesEmptyBuckets) {
  BucketArena arena(4);
  const uint32_t a = arena.Alloc();
  EXPECT_TRUE(arena.bucket(a).messages.empty());
  EXPECT_EQ(arena.bucket(a).next, kInvalidBucket);
  EXPECT_EQ(arena.num_buckets(), 1u);
}

TEST(BucketArenaTest, RecyclesFreedBuckets) {
  BucketArena arena(4);
  const uint32_t a = arena.Alloc();
  arena.bucket(a).messages.push_back(MakeMessage(1, 1, 0));
  arena.FreeAll(std::span(&a, 1));
  const uint32_t b = arena.Alloc();
  EXPECT_EQ(a, b);  // pooled
  EXPECT_TRUE(arena.bucket(b).messages.empty());  // and reset
  EXPECT_EQ(arena.num_buckets(), 1u);
}

TEST(BucketArenaTest, AllocManyReturnsDistinctEmptyBuckets) {
  BucketArena arena(4);
  std::vector<uint32_t> ids(5);
  arena.AllocMany(ids);
  EXPECT_EQ(std::set<uint32_t>(ids.begin(), ids.end()).size(), 5u);
  for (uint32_t id : ids) {
    EXPECT_TRUE(arena.bucket(id).messages.empty());
    EXPECT_EQ(arena.bucket(id).next, kInvalidBucket);
  }
  EXPECT_EQ(arena.num_buckets(), 5u);
  EXPECT_EQ(arena.num_free(), 0u);
}

TEST(BucketArenaTest, FreeAllAndAllocManyRecycleLikeFreeAndAlloc) {
  // Twin arenas: one driven bucket by bucket, one in batches, must hand out
  // the same ids in the same order, reset and without growing.
  BucketArena single(4);
  BucketArena batched(4);
  std::vector<uint32_t> a(6);
  std::vector<uint32_t> b(6);
  for (uint32_t& id : a) id = single.Alloc();
  batched.AllocMany(b);
  EXPECT_EQ(a, b);
  for (uint32_t id : b) {
    batched.bucket(id).messages.push_back(MakeMessage(1, id + 1, 1.0));
    batched.bucket(id).latest_time = 1.0;
    batched.bucket(id).next = 0;
  }
  const std::vector<uint32_t> released = {b[4], b[1], b[2]};
  for (uint32_t id : released) single.FreeAll(std::span(&id, 1));
  batched.FreeAll(released);
  EXPECT_EQ(batched.num_free(), 3u);

  std::vector<uint32_t> again_single(4);
  std::vector<uint32_t> again_batched(4);
  for (uint32_t& id : again_single) id = single.Alloc();
  batched.AllocMany(again_batched);
  EXPECT_EQ(again_single, again_batched);
  // Three recycled (last freed first), one new.
  EXPECT_EQ(again_batched[0], b[2]);
  EXPECT_EQ(again_batched[1], b[1]);
  EXPECT_EQ(again_batched[2], b[4]);
  EXPECT_EQ(batched.num_buckets(), 7u);
  for (uint32_t id : again_batched) {
    EXPECT_TRUE(batched.bucket(id).messages.empty());
    EXPECT_DOUBLE_EQ(batched.bucket(id).latest_time, 0.0);
    EXPECT_EQ(batched.bucket(id).next, kInvalidBucket);
  }
}

TEST(MessageListTest, AppendFillsBucketsToCapacity) {
  BucketArena arena(3);
  MessageList list;
  for (uint64_t i = 0; i < 7; ++i) {
    list.Append(&arena, MakeMessage(1, i + 1, static_cast<double>(i)));
  }
  EXPECT_EQ(list.num_messages(), 7u);
  // 7 messages across buckets of 3: 3 + 3 + 1.
  uint32_t buckets = 0;
  for (uint32_t b = list.head(); b != kInvalidBucket;
       b = arena.bucket(b).next) {
    ++buckets;
    EXPECT_LE(arena.bucket(b).messages.size(), 3u);
  }
  EXPECT_EQ(buckets, 3u);
  // Chronological order is preserved.
  const auto all = AllMessages(arena, list);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].seq, all[i - 1].seq);
  }
}

TEST(MessageListTest, LatestTimeTracksNewestMessage) {
  BucketArena arena(8);
  MessageList list;
  list.Append(&arena, MakeMessage(1, 1, 5.0));
  list.Append(&arena, MakeMessage(2, 2, 9.0));
  EXPECT_DOUBLE_EQ(arena.bucket(list.tail()).latest_time, 9.0);
}

TEST(MessageListTest, LockReturnsPrefixAndKeepsAppendsSeparate) {
  BucketArena arena(2);
  MessageList list;
  for (uint64_t i = 0; i < 5; ++i) {
    list.Append(&arena, MakeMessage(1, i + 1, 0));
  }
  EXPECT_FALSE(list.locked());
  const std::vector<uint32_t> locked = Lock(&arena, &list);
  EXPECT_TRUE(list.locked());
  EXPECT_EQ(locked.size(), 3u);  // ceil(5/2) buckets held the 5 messages

  // Appends during cleaning land after the lock boundary.
  list.Append(&arena, MakeMessage(2, 100, 1.0));
  bool found_in_locked = false;
  for (uint32_t b : locked) {
    for (const Message& m : arena.bucket(b).messages) {
      if (m.seq == 100) found_in_locked = true;
    }
  }
  EXPECT_FALSE(found_in_locked);
}

TEST(MessageListTest, LockUsesTheCallerSuppliedBucket) {
  BucketArena arena(2);
  MessageList list;
  for (uint64_t i = 0; i < 3; ++i) {
    list.Append(&arena, MakeMessage(1, i + 1, 0));
  }
  const uint32_t old_tail = list.tail();
  const uint32_t buckets_before = arena.num_buckets();
  const uint32_t fresh = arena.Alloc();
  list.LockForCleaning(&arena, fresh);
  EXPECT_EQ(arena.num_buckets(), buckets_before + 1);  // no second bucket
  EXPECT_EQ(list.lock_boundary(), fresh);
  EXPECT_EQ(list.tail(), fresh);
  EXPECT_EQ(arena.bucket(old_tail).next, fresh);
  EXPECT_EQ(list.num_messages(), 3u);
  // The next append lands in the supplied bucket, after the boundary.
  list.Append(&arena, MakeMessage(2, 9, 1.0));
  ASSERT_EQ(arena.bucket(fresh).messages.size(), 1u);
  EXPECT_EQ(arena.bucket(fresh).messages[0].seq, 9u);

  // Aborting an untouched lock hands the bucket back for the caller to free.
  MessageList idle;
  idle.Append(&arena, MakeMessage(3, 10, 1.0));
  const uint32_t idle_fresh = arena.Alloc();
  idle.LockForCleaning(&arena, idle_fresh);
  EXPECT_EQ(idle.AbortCleaning(&arena), idle_fresh);
  EXPECT_FALSE(idle.locked());
  EXPECT_EQ(idle.head(), idle.tail());
  EXPECT_EQ(arena.bucket(idle.tail()).next, kInvalidBucket);
  // With an append since the lock, the bucket stays in the list.
  EXPECT_EQ(list.AbortCleaning(&arena), kInvalidBucket);
  EXPECT_EQ(list.tail(), fresh);
}

TEST(MessageListTest, ReplaceLockedPrefixCompactsAndPreservesSuffix) {
  BucketArena arena(2);
  MessageList list;
  for (uint64_t i = 0; i < 6; ++i) {
    list.Append(&arena, MakeMessage(static_cast<ObjectId>(i % 2), i + 1,
                                    static_cast<double>(i)));
  }
  const std::vector<uint32_t> locked = Lock(&arena, &list);
  list.Append(&arena, MakeMessage(7, 100, 10.0));  // arrives mid-clean

  // Cleaning determined the latest message per object.
  std::vector<Message> compacted = {MakeMessage(0, 5, 4.0),
                                    MakeMessage(1, 6, 5.0)};
  arena.FreeAll(list.ReplaceLockedPrefix(&arena, compacted, locked));

  EXPECT_FALSE(list.locked());
  EXPECT_FALSE(list.compacted());  // the mid-clean append is not compacted
  const auto all = AllMessages(arena, list);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 5u);
  EXPECT_EQ(all[1].seq, 6u);
  EXPECT_EQ(all[2].seq, 100u);  // the mid-clean append survived
  EXPECT_EQ(list.num_messages(), 3u);
}

TEST(MessageListTest, ReplaceLockedPrefixBuildsInSparesAndReportsUnused) {
  BucketArena arena(2);
  MessageList list;
  for (uint64_t i = 0; i < 8; ++i) {
    list.Append(&arena, MakeMessage(static_cast<ObjectId>(i % 3), i + 1,
                                    static_cast<double>(i)));
  }
  const std::vector<uint32_t> locked = Lock(&arena, &list);
  ASSERT_EQ(locked.size(), 4u);
  const uint32_t lock_bucket = list.lock_boundary();
  const uint32_t buckets_before = arena.num_buckets();

  // Three survivors need two buckets of two: the first two spares, in
  // order, then p_l.
  const std::vector<Message> compacted = {MakeMessage(2, 6, 5.0),
                                          MakeMessage(0, 7, 6.0),
                                          MakeMessage(1, 8, 7.0)};
  const std::span<const uint32_t> unused =
      list.ReplaceLockedPrefix(&arena, compacted, locked);
  ASSERT_EQ(unused.size(), 2u);
  EXPECT_EQ(unused[0], locked[2]);
  EXPECT_EQ(unused[1], locked[3]);
  EXPECT_EQ(arena.num_buckets(), buckets_before);  // nothing allocated

  EXPECT_EQ(list.head(), locked[0]);
  EXPECT_EQ(arena.bucket(locked[0]).next, locked[1]);
  EXPECT_EQ(arena.bucket(locked[1]).next, lock_bucket);
  EXPECT_EQ(arena.bucket(locked[0]).messages.size(), 2u);
  EXPECT_DOUBLE_EQ(arena.bucket(locked[0]).latest_time, 6.0);
  EXPECT_DOUBLE_EQ(arena.bucket(locked[1]).latest_time, 7.0);
  const auto all = AllMessages(arena, list);
  ASSERT_EQ(all.size(), 3u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, compacted[i].seq);  // R order kept
  }
  EXPECT_EQ(list.num_messages(), 3u);
  EXPECT_TRUE(list.compacted());  // nothing arrived since the lock
  EXPECT_FALSE(list.locked());

  arena.FreeAll(unused);
  EXPECT_EQ(arena.num_free(), 2u);
}

TEST(MessageListTest, ReplaceWithEmptyCompaction) {
  BucketArena arena(4);
  MessageList list;
  list.Append(&arena, MakeMessage(1, 1, 0));
  const auto locked = Lock(&arena, &list);
  const auto unused = list.ReplaceLockedPrefix(&arena, {}, locked);
  EXPECT_EQ(unused.size(), locked.size());  // every spare unused
  arena.FreeAll(unused);
  EXPECT_EQ(list.num_messages(), 0u);
  EXPECT_FALSE(list.locked());
  // List remains usable.
  list.Append(&arena, MakeMessage(2, 2, 1.0));
  EXPECT_EQ(list.num_messages(), 1u);
}

TEST(MessageListTest, LockOnEmptyList) {
  BucketArena arena(4);
  MessageList list;
  const auto locked = Lock(&arena, &list);
  EXPECT_TRUE(locked.empty());
  EXPECT_TRUE(list.locked());
  const std::vector<Message> compacted = {MakeMessage(3, 9, 2.0)};
  EXPECT_TRUE(
      list.ReplaceLockedPrefix(&arena, compacted, Spares(&arena, 1)).empty());
  EXPECT_EQ(list.num_messages(), 1u);
}

TEST(MessageListTest, CompactionLargerThanOneBucketChains) {
  BucketArena arena(2);
  MessageList list;
  Lock(&arena, &list);
  std::vector<Message> compacted;
  for (uint64_t i = 0; i < 5; ++i) {
    compacted.push_back(MakeMessage(static_cast<ObjectId>(i), i + 1,
                                    static_cast<double>(i)));
  }
  list.ReplaceLockedPrefix(&arena, compacted, Spares(&arena, 3));
  EXPECT_EQ(AllMessages(arena, list).size(), 5u);
}

TEST(MessageListTest, BucketFreshnessUsesMaxTimeOfCompactedMessages) {
  BucketArena arena(8);
  MessageList list;
  Lock(&arena, &list);
  // Compacted messages grouped by object, newest-first ordering not
  // guaranteed: the bucket stamp must be the max.
  const std::vector<Message> compacted = {MakeMessage(0, 2, 9.0),
                                          MakeMessage(1, 1, 3.0)};
  list.ReplaceLockedPrefix(&arena, compacted, Spares(&arena, 1));
  EXPECT_DOUBLE_EQ(arena.bucket(list.head()).latest_time, 9.0);
}

}  // namespace
}  // namespace gknn::core
