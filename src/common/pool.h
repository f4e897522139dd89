// Slab recycling for hot-path wire buffers.
//
// Every protocol message that crosses a Runtime boundary lives in a
// heap-backed `Bytes`. At benchmark scale (n = 150, thousands of messages
// per commit) the allocate/free traffic for those buffers — plus one
// shared_ptr control block per fan-out — dominates the allocator profile.
// BufferPool removes both from the steady state:
//
//  - buffers are recycled with their capacity intact, so a vertex VAL that
//    grew to 3 MB once never re-grows;
//  - the shared_ptr control blocks that carry buffers through
//    Runtime::Send() come from a fixed-size slot arena, not operator new.
//
// Usage (the single-serialize fan-out primitive):
//
//   auto payload = EncodeToShared([&](Writer& w) { vertex.Serialize(w); });
//   runtime.Broadcast(kConsVertexVal, payload, wire_size);
//
// or, for an existing `Bytes` that is about to be shared:
//
//   auto payload = BufferPool::Global().AdoptShared(std::move(bytes));
//
// When the last reference drops — possibly on a TCP writer thread — the
// buffer returns to the pool.
//
// Capacity: the pool retains at most kMaxPooledBuffers buffers and at most
// kMaxPooledBytes of summed capacity; buffers larger than
// kMaxPooledBufferBytes are freed on release instead of cached. The control
// block arena retains at most kMaxControlSlots slots. Beyond any cap the
// pool degrades to plain heap allocation — it never blocks and never fails.
//
// Threading: all BufferPool and slab-arena methods are thread-safe
// (guarded by an annotated Mutex); PooledBytes handles and the shared
// buffers they produce may be released from any thread. A PooledBytes
// handle itself is not thread-safe and must not be used concurrently.

#ifndef CLANDAG_COMMON_POOL_H_
#define CLANDAG_COMMON_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/mutex.h"

namespace clandag {

// Fixed-size slot arena. Slots are carved from slab allocations
// (kSlotsPerSlab at a time) and recycled through a free list; slabs
// themselves are never returned (bounded by peak concurrency). At most
// `max_slots` slots are ever carved; past that cap, and for requests wider
// than a slot, allocation falls back to operator new — the arena never
// blocks and never fails. Two instances exist, ControlBlockArena and
// NodeArena below, differing only in slot size, cap and lock name.
class SlabArena {
 public:
  static constexpr size_t kSlotsPerSlab = 64;

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  void* Allocate(size_t bytes);
  void Free(void* p, size_t bytes);

  size_t slots_carved() const {
    MutexLock lock(mu_);
    return slots_carved_;
  }
  // Allocations served by operator new because the carve cap was reached or
  // the request outgrew the slot. Nonzero means the working set exceeded the
  // cap (or a caller allocates something wider than the arena was sized for).
  size_t heap_fallbacks() const {
    MutexLock lock(mu_);
    return heap_fallbacks_;
  }

 protected:
  SlabArena(const char* lock_name, size_t slot_bytes, size_t max_slots)
      : slot_bytes_(slot_bytes),
        max_slots_(max_slots),
        mu_(lock_name, lock_rank::kControlArena) {}

 private:
  bool Owns(const void* p) const CLANDAG_REQUIRES(mu_);

  const size_t slot_bytes_;
  const size_t max_slots_;
  mutable Mutex mu_;
  // Slabs are never returned; both vectors are bounded by max_slots_.
  std::vector<std::unique_ptr<unsigned char[]>> slabs_ CLANDAG_GUARDED_BY(mu_);
  std::vector<void*> free_slots_ CLANDAG_GUARDED_BY(mu_);
  size_t slots_carved_ CLANDAG_GUARDED_BY(mu_) = 0;
  size_t heap_fallbacks_ CLANDAG_GUARDED_BY(mu_) = 0;
};

// Slot arena for shared_ptr control blocks.
class ControlBlockArena final : public SlabArena {
 public:
  // One slot comfortably fits libstdc++'s _Sp_counted_deleter for a
  // pointer + small deleter + allocator; larger requests fall back to the
  // global heap.
  static constexpr size_t kSlotBytes = 128;
  // At most this many slots are ever carved; beyond it allocation falls
  // back to operator new. Sized for the simulator's live-buffer peak: every
  // undelivered message payload plus every instance-lifetime pin (stored
  // echo-certificates, last-VAL buffers) holds one control block, and a
  // saturated n = 150 sweep keeps a few 10^5 live. Bounds arena memory at
  // 48 MiB — carved on demand, never preallocated.
  static constexpr size_t kMaxControlSlots = 393216;

  ControlBlockArena() : SlabArena("pool.arena", kSlotBytes, kMaxControlSlots) {}

  // Leaked singleton: outlives every shared buffer, including ones released
  // from detached transport threads during process teardown.
  static ControlBlockArena& Global();
};

// std::allocator-compatible adaptor over ControlBlockArena, used as the
// third argument of shared_ptr's (ptr, deleter, alloc) constructor so the
// control block itself is pool-backed.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    return static_cast<T*>(ControlBlockArena::Global().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { ControlBlockArena::Global().Free(p, n * sizeof(T)); }

  template <typename U>
  friend bool operator==(const ArenaAllocator&, const ArenaAllocator<U>&) {
    return true;
  }
};

// Slot arena for the node-based protocol containers (the per-round
// vote-tracker maps, the DAG round index, the weak-edge frontier set). Slots
// are wide enough for a red-black-tree node carrying a Digest key plus a
// VoteTracker — the widest node on the consensus hot path. Nodes freed by
// post-commit pruning are recycled for the next round's inserts, so the
// steady state allocates nothing: the working set is one window of rounds
// wide and the free list absorbs it. Node containers live on single
// consensus threads today, but the arena stays safe to release anywhere.
class NodeArena final : public SlabArena {
 public:
  static constexpr size_t kSlotBytes = 192;
  // Carve cap: bounds arena memory at 48 MiB. Sized like kMaxControlSlots —
  // a saturated n = 150 run keeps one GC window of per-round map/set nodes
  // live per node object, far below this; beyond it allocation degrades to
  // operator new.
  static constexpr size_t kMaxNodeSlots = 262144;

  NodeArena() : SlabArena("pool.nodes", kSlotBytes, kMaxNodeSlots) {}

  // Leaked singleton (see ControlBlockArena::Global).
  static NodeArena& Global();
};

// std::allocator-compatible adaptor over NodeArena for node-based
// containers. The clandag-hotpath-alloc check treats growth of a container
// whose allocator is NodeAllocator/ArenaAllocator as pool-routed.
template <typename T>
class NodeAllocator {
 public:
  using value_type = T;

  NodeAllocator() = default;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    return static_cast<T*>(NodeArena::Global().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { NodeArena::Global().Free(p, n * sizeof(T)); }

  template <typename U>
  friend bool operator==(const NodeAllocator&, const NodeAllocator<U>&) {
    return true;
  }
};

// Arena-backed drop-ins for the protocol's per-round indices. Node churn
// (insert on message arrival, erase on post-commit GC) cycles through the
// NodeArena free list instead of the heap.
template <typename K, typename V, typename Cmp = std::less<K>>
using ArenaMap = std::map<K, V, Cmp, NodeAllocator<std::pair<const K, V>>>;
template <typename K, typename Cmp = std::less<K>>
using ArenaSet = std::set<K, Cmp, NodeAllocator<K>>;

class BufferPool;

// Move-only checkout handle for one pooled buffer. Destroying it returns the
// buffer; Share() instead wraps it in a shared_ptr whose deleter returns it
// when the last reference drops.
class PooledBytes {
 public:
  PooledBytes() = default;
  PooledBytes(PooledBytes&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)), buf_(std::exchange(other.buf_, nullptr)) {}
  PooledBytes& operator=(PooledBytes&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
      buf_ = std::exchange(other.buf_, nullptr);
    }
    return *this;
  }
  PooledBytes(const PooledBytes&) = delete;
  PooledBytes& operator=(const PooledBytes&) = delete;
  ~PooledBytes() { Release(); }

  Bytes& operator*() { return *buf_; }
  Bytes* operator->() { return buf_; }
  bool valid() const { return buf_ != nullptr; }

  // Consumes the handle; the buffer returns to the pool when the last
  // shared reference is dropped (from any thread).
  std::shared_ptr<const Bytes> Share() &&;

 private:
  friend class BufferPool;
  PooledBytes(BufferPool* pool, Bytes* buf) : pool_(pool), buf_(buf) {}
  void Release();

  BufferPool* pool_ = nullptr;
  Bytes* buf_ = nullptr;
};

class BufferPool {
 public:
  // Retention caps (see file comment). kMaxPooledBuffers bounds the free
  // list length; kMaxPooledBufferBytes rejects oversized buffers from being
  // cached; kMaxPooledBytes bounds the summed retained capacity.
  // kMaxPooledBuffers must cover the in-flight peak (see kMaxControlSlots):
  // a free list smaller than the number of simultaneously-undelivered
  // payloads oscillates between empty and full, discarding on every return
  // and heap-allocating on every checkout.
  static constexpr size_t kMaxPooledBuffers = 262144;
  static constexpr size_t kMaxPooledBufferBytes = 8u << 20;    // 8 MiB
  static constexpr size_t kMaxPooledBytes = 256u << 20;        // 256 MiB

  struct Stats {
    uint64_t acquires = 0;   // Total checkouts (Acquire + AdoptShared nodes).
    uint64_t reuses = 0;     // Checkouts served from the free list.
    uint64_t discards = 0;   // Buffers freed on release because of a cap.
    size_t free_count = 0;   // Current free-list length.
    size_t retained_bytes = 0;  // Summed capacity on the free list.
    size_t high_water = 0;   // Max free-list length ever.
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  // Checks out an empty buffer (capacity retained from a prior use when the
  // free list is non-empty).
  PooledBytes Acquire();

  // Moves an existing Bytes into a pooled node and shares it; the capacity
  // joins the pool when the last reference drops. This is what the
  // Runtime::Send/Multicast/Broadcast by-value helpers use, so every legacy
  // call site recycles without modification.
  std::shared_ptr<const Bytes> AdoptShared(Bytes&& b);

  Stats stats() const;

  // Drops all free-listed buffers (tests; steady-state code never needs it).
  void Trim();

  // Leaked singleton (see ControlBlockArena::Global).
  static BufferPool& Global();

 private:
  friend class PooledBytes;

  Bytes* Checkout();
  void Return(Bytes* buf);

  mutable Mutex mu_{"pool.buffers", lock_rank::kBufferPool};
  std::vector<std::unique_ptr<Bytes>> free_ CLANDAG_GUARDED_BY(mu_);
  size_t retained_bytes_ CLANDAG_GUARDED_BY(mu_) = 0;
  uint64_t acquires_ CLANDAG_GUARDED_BY(mu_) = 0;
  uint64_t reuses_ CLANDAG_GUARDED_BY(mu_) = 0;
  uint64_t discards_ CLANDAG_GUARDED_BY(mu_) = 0;
  size_t high_water_ CLANDAG_GUARDED_BY(mu_) = 0;
};

// Encodes one message into a pooled buffer via `fn(Writer&)` and returns it
// shared — serialize once, enqueue everywhere.
template <typename EncodeFn>
std::shared_ptr<const Bytes> EncodeToShared(EncodeFn&& fn) {
  PooledBytes buf = BufferPool::Global().Acquire();
  Writer w(std::move(*buf));
  fn(w);
  *buf = w.Take();
  return std::move(buf).Share();
}

}  // namespace clandag

#endif  // CLANDAG_COMMON_POOL_H_
