#include "common/pool.h"

#include <algorithm>

namespace clandag {

// --- SlabArena --------------------------------------------------------------

void* SlabArena::Allocate(size_t bytes) {
  {
    MutexLock lock(mu_);
    if (bytes <= slot_bytes_) {
      if (!free_slots_.empty()) {
        void* slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
      }
      if (slots_carved_ + kSlotsPerSlab <= max_slots_) {
        auto slab = std::make_unique<unsigned char[]>(slot_bytes_ * kSlotsPerSlab);
        unsigned char* base = slab.get();
        slabs_.push_back(std::move(slab));
        slots_carved_ += kSlotsPerSlab;
        // Keep slot 0 for the caller, free-list the rest.
        for (size_t i = 1; i < kSlotsPerSlab; ++i) {
          free_slots_.push_back(base + i * slot_bytes_);
        }
        return base;
      }
    }
    ++heap_fallbacks_;
  }
  return ::operator new(bytes);
}

void SlabArena::Free(void* p, size_t bytes) {
  if (bytes > slot_bytes_) {
    ::operator delete(p);
    return;
  }
  {
    MutexLock lock(mu_);
    if (Owns(p)) {
      // bounded: the free list only ever holds slots carved under max_slots_
      // (kMaxControlSlots / kMaxNodeSlots).
      free_slots_.push_back(p);
      return;
    }
  }
  // Allocated past the arena cap: plain heap block.
  ::operator delete(p);
}

bool SlabArena::Owns(const void* p) const {
  const auto* b = static_cast<const unsigned char*>(p);
  for (const auto& slab : slabs_) {
    const unsigned char* base = slab.get();
    if (b >= base && b < base + slot_bytes_ * kSlotsPerSlab) {
      return true;
    }
  }
  return false;
}

ControlBlockArena& ControlBlockArena::Global() {
  static ControlBlockArena* arena = new ControlBlockArena();
  return *arena;
}

NodeArena& NodeArena::Global() {
  static NodeArena* arena = new NodeArena();
  return *arena;
}

// --- BufferPool -------------------------------------------------------------

BufferPool::~BufferPool() = default;

Bytes* BufferPool::Checkout() {
  MutexLock lock(mu_);
  ++acquires_;
  if (!free_.empty()) {
    std::unique_ptr<Bytes> node = std::move(free_.back());
    free_.pop_back();
    retained_bytes_ -= node->capacity();
    ++reuses_;
    node->clear();
    return node.release();
  }
  return new Bytes();
}

void BufferPool::Return(Bytes* buf) {
  std::unique_ptr<Bytes> node(buf);
  MutexLock lock(mu_);
  const size_t cap = node->capacity();
  if (free_.size() >= kMaxPooledBuffers || cap > kMaxPooledBufferBytes ||
      retained_bytes_ + cap > kMaxPooledBytes) {
    ++discards_;
    return;  // node deletes on scope exit
  }
  retained_bytes_ += cap;
  free_.push_back(std::move(node));
  high_water_ = std::max(high_water_, free_.size());
}

PooledBytes BufferPool::Acquire() { return PooledBytes(this, Checkout()); }

std::shared_ptr<const Bytes> BufferPool::AdoptShared(Bytes&& b) {
  Bytes* node = Checkout();
  *node = std::move(b);
  BufferPool* pool = this;
  return std::shared_ptr<const Bytes>(
      node, [pool](const Bytes* p) { pool->Return(const_cast<Bytes*>(p)); },
      ArenaAllocator<Bytes>());
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.acquires = acquires_;
  s.reuses = reuses_;
  s.discards = discards_;
  s.free_count = free_.size();
  s.retained_bytes = retained_bytes_;
  s.high_water = high_water_;
  return s;
}

void BufferPool::Trim() {
  MutexLock lock(mu_);
  free_.clear();
  retained_bytes_ = 0;
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

// --- PooledBytes ------------------------------------------------------------

void PooledBytes::Release() {
  if (buf_ != nullptr) {
    pool_->Return(buf_);
    buf_ = nullptr;
    pool_ = nullptr;
  }
}

std::shared_ptr<const Bytes> PooledBytes::Share() && {
  BufferPool* pool = std::exchange(pool_, nullptr);
  Bytes* buf = std::exchange(buf_, nullptr);
  return std::shared_ptr<const Bytes>(
      buf, [pool](const Bytes* p) { pool->Return(const_cast<Bytes*>(p)); },
      ArenaAllocator<Bytes>());
}

}  // namespace clandag
