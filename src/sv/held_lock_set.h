// The key locks one 1V transaction holds (strict 2PL: held to commit).
//
// Every Read under Repeatable Read / Serializable first asks whether the
// transaction already holds the key's lock, so the lookup is on the read
// path of every row a long serializable reader touches. A linear search
// would make such a reader quadratic in its read set (~50M pointer compares
// for 10K rows), and it holds its S locks, blocking updaters, throughout.
//
// HeldLockSet keeps the entries in a vector (release order does not matter)
// plus an open-addressing index (linear probing, load <= 1/2) of entry
// positions keyed by KeyLock*:
//  * Find and Add are O(1).
//  * Clear is O(held): each entry records the index slot that names it, so
//    only those slots are zeroed. A pooled handle that once held 10K locks
//    keeps its grown index (mem/object_pool.h recycles capacity) and costs
//    the next three-lock transaction three stores, not a table-wide memset.
//  * Drop swap-removes one entry and closes the index gap by backward
//    shifting, so no tombstones accumulate across recycled uses.
//
// Owning thread only, like the SVTransaction that embeds it.
#pragma once

#include <cstdint>
#include <vector>

#include "sv/lock_table.h"

namespace mvstore {

class HeldLockSet {
 public:
  struct Entry {
    KeyLock* lock;
    bool exclusive;
    uint32_t slot;  // index_ position naming this entry (set-internal)
  };

  /// This transaction's hold on `lock`, or nullptr. The pointer is valid
  /// until the next Add or Drop.
  Entry* Find(const KeyLock* lock) {
    if (index_.empty()) return nullptr;
    for (uint32_t s = Home(lock);; s = (s + 1) & mask_) {
      const uint32_t pos = index_[s];
      if (pos == 0) return nullptr;
      Entry& e = entries_[pos - 1];
      if (e.lock == lock) return &e;
    }
  }

  /// Record a newly acquired lock; the caller checked Find(lock) == nullptr.
  void Add(KeyLock* lock, bool exclusive) {
    if ((entries_.size() + 1) * 2 > index_.size()) Grow();
    const uint32_t s = FreeSlot(lock);
    entries_.push_back(Entry{lock, exclusive, s});
    index_[s] = static_cast<uint32_t>(entries_.size());
  }

  /// Forget `e` (from Find) without releasing its lock.
  void Drop(Entry* e) {
    uint32_t hole = e->slot;
    Entry& last = entries_.back();
    if (e != &last) {
      *e = last;
      index_[e->slot] = static_cast<uint32_t>(e - entries_.data()) + 1;
    }
    entries_.pop_back();
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, s].
    index_[hole] = 0;
    for (uint32_t s = (hole + 1) & mask_; index_[s] != 0;
         s = (s + 1) & mask_) {
      Entry& m = entries_[index_[s] - 1];
      if (((s - Home(m.lock)) & mask_) >= ((s - hole) & mask_)) {
        index_[hole] = index_[s];
        m.slot = hole;
        index_[s] = 0;
        hole = s;
      }
    }
  }

  /// Forget every entry in O(held); index capacity is kept.
  void Clear() {
    for (const Entry& e : entries_) index_[e.slot] = 0;
    entries_.clear();
  }

  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  static constexpr uint32_t kMinSlots = 16;

  /// Fibonacci hashing on the pointer: one multiply, top bits.
  uint32_t Home(const KeyLock* lock) const {
    return static_cast<uint32_t>(
        (reinterpret_cast<uintptr_t>(lock) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  uint32_t FreeSlot(const KeyLock* lock) const {
    uint32_t s = Home(lock);
    while (index_[s] != 0) s = (s + 1) & mask_;
    return s;
  }

  void Grow() {
    const size_t slots = index_.empty() ? kMinSlots : index_.size() * 2;
    index_.assign(slots, 0);
    mask_ = static_cast<uint32_t>(slots - 1);
    shift_ = static_cast<uint32_t>(64 - __builtin_ctzll(slots));
    for (size_t i = 0; i < entries_.size(); ++i) {
      const uint32_t s = FreeSlot(entries_[i].lock);
      entries_[i].slot = s;
      index_[s] = static_cast<uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  /// Entry position + 1 per slot; 0 = empty. Size is 0 or a power of two.
  std::vector<uint32_t> index_;
  uint32_t mask_ = 0;
  uint32_t shift_ = 63;
};

}  // namespace mvstore
