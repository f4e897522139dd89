// BufferPool / the slab arenas / EncodeToShared (common/pool.h).
//
// The multi-threaded cases double as the TSan workload for the pool: CI's
// sanitizer job runs this suite with threads hammering Acquire/Share/release
// from many threads at once.

#include "common/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "rbc/quorum.h"

namespace clandag {
namespace {

TEST(BufferPool, AcquireReusesCapacity) {
  BufferPool pool;
  const Bytes* first_data = nullptr;
  {
    PooledBytes buf = pool.Acquire();
    buf->resize(1000);
    first_data = &*buf;
    (void)first_data;
  }
  // The buffer went back on release; the next checkout must reuse it with
  // capacity intact and contents cleared.
  PooledBytes again = pool.Acquire();
  EXPECT_TRUE(again->empty());
  EXPECT_GE(again->capacity(), 1000u);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(BufferPool, ShareReturnsOnLastReference) {
  BufferPool pool;
  std::shared_ptr<const Bytes> a;
  {
    PooledBytes buf = pool.Acquire();
    buf->assign(64, 0xab);
    a = std::move(buf).Share();
  }
  std::shared_ptr<const Bytes> b = a;  // Second reference.
  a.reset();
  EXPECT_EQ(pool.stats().free_count, 0u) << "buffer returned while still referenced";
  b.reset();
  EXPECT_EQ(pool.stats().free_count, 1u);
}

TEST(BufferPool, AdoptSharedRecyclesLegacyBytes) {
  BufferPool pool;
  Bytes payload(128, 0x5a);
  {
    std::shared_ptr<const Bytes> shared = pool.AdoptShared(std::move(payload));
    EXPECT_EQ(shared->size(), 128u);
  }
  PooledBytes buf = pool.Acquire();
  EXPECT_GE(buf->capacity(), 128u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(BufferPool, OversizedBuffersAreDiscardedNotCached) {
  BufferPool pool;
  {
    PooledBytes buf = pool.Acquire();
    buf->resize(BufferPool::kMaxPooledBufferBytes + 1);
  }
  EXPECT_EQ(pool.stats().free_count, 0u);
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(BufferPool, TrimDropsFreeList) {
  BufferPool pool;
  { PooledBytes b = pool.Acquire(); b->resize(10); }
  EXPECT_EQ(pool.stats().free_count, 1u);
  pool.Trim();
  EXPECT_EQ(pool.stats().free_count, 0u);
  EXPECT_EQ(pool.stats().retained_bytes, 0u);
}

TEST(BufferPool, EncodeToSharedProducesEncodedBytes) {
  auto shared = EncodeToShared([](Writer& w) {
    w.U32(0xdeadbeef);
    w.U32(7);
  });
  Reader r(*shared);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.Remaining(), 0u);
}

// ControlBlockArena and NodeArena are two instances of one SlabArena
// implementation; every slot-arena case runs over both.
template <typename Arena>
void ExpectRecyclesSlots() {
  Arena arena;
  void* a = arena.Allocate(64);
  ASSERT_NE(a, nullptr);
  arena.Free(a, 64);
  void* b = arena.Allocate(64);
  EXPECT_EQ(a, b) << "freed slot should be recycled LIFO";
  arena.Free(b, 64);
  EXPECT_EQ(arena.slots_carved(), SlabArena::kSlotsPerSlab);
  EXPECT_EQ(arena.heap_fallbacks(), 0u);
}

template <typename Arena>
void ExpectOversizedRequestsFallBackToHeap() {
  Arena arena;
  void* p = arena.Allocate(Arena::kSlotBytes + 1);
  ASSERT_NE(p, nullptr);
  arena.Free(p, Arena::kSlotBytes + 1);
  EXPECT_EQ(arena.slots_carved(), 0u);
  EXPECT_EQ(arena.heap_fallbacks(), 1u);
}

TEST(ControlBlockArena, RecyclesSlots) { ExpectRecyclesSlots<ControlBlockArena>(); }

TEST(ControlBlockArena, OversizedRequestsFallBackToHeap) {
  ExpectOversizedRequestsFallBackToHeap<ControlBlockArena>();
}

TEST(NodeArena, RecyclesSlots) { ExpectRecyclesSlots<NodeArena>(); }

TEST(NodeArena, OversizedRequestsFallBackToHeap) {
  ExpectOversizedRequestsFallBackToHeap<NodeArena>();
}

// The node the arena's slot is sized for: a vote tracker keyed by digest. A
// tracker that outgrew NodeArena::kSlotBytes would send every such node to
// the heap without failing anything else.
TEST(NodeArena, VoteTrackerNodesFitSlots) {
  const size_t before = NodeArena::Global().heap_fallbacks();
  {
    ArenaMap<Digest, VoteTracker> trackers;
    for (uint8_t i = 0; i < 16; ++i) {
      trackers.try_emplace(Digest::Of(Bytes{i}), 150);
    }
    trackers.erase(trackers.begin(), trackers.end());
  }
  EXPECT_EQ(NodeArena::Global().heap_fallbacks(), before);
}

// Shared buffers released from many threads at once: exercises the
// free-list mutex and the arena under contention (TSan-relevant).
TEST(BufferPool, ConcurrentShareAndReleaseIsSafe) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<uint64_t> total_bytes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &total_bytes, t] {
      for (int i = 0; i < kPerThread; ++i) {
        PooledBytes buf = pool.Acquire();
        buf->assign(static_cast<size_t>(16 + (i % 64)), static_cast<uint8_t>(t));
        std::shared_ptr<const Bytes> shared = std::move(buf).Share();
        total_bytes.fetch_add(shared->size(), std::memory_order_relaxed);
        std::shared_ptr<const Bytes> alias = shared;  // Cross-reference churn.
        shared.reset();
        alias.reset();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, static_cast<uint64_t>(kThreads) * kPerThread);
  // Every buffer was released; the free list holds all still-cached ones.
  EXPECT_EQ(stats.free_count + stats.discards,
            static_cast<uint64_t>(kThreads) * kPerThread - stats.reuses);
  EXPECT_GT(total_bytes.load(), 0u);
}

}  // namespace
}  // namespace clandag
