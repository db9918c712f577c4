#include "alloc_counter.hpp"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Counters are striped over cache-line-sized slots, one picked per
// thread, so the node threads of a cluster do not all bounce one line.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr std::size_t kSlots = 64;
std::array<Slot, kSlots> g_slots;
std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_next_slot{0};

Slot& MySlot() {
  thread_local std::size_t index = kSlots;
  if (index == kSlots) {
    index = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  return g_slots[index];
}

void* CountedAllocNoThrow(std::size_t size) noexcept {
  if (g_enabled.load(std::memory_order_relaxed)) {
    Slot& slot = MySlot();
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(std::size_t size) {
  if (void* ptr = CountedAllocNoThrow(size)) return ptr;
  throw std::bad_alloc{};
}

}  // namespace

void EnableAllocCounting(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

AllocCount AllocTotals() {
  AllocCount total;
  for (const Slot& slot : g_slots) {
    total.calls += slot.calls.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
// The nothrow forms are replaced too, so that every plain new pairs
// with the free() below whatever the runtime's own defaults are.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::CountedAllocNoThrow(size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
