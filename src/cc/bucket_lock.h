// Bucket locks for phantom protection in MV/L (paper Section 4.1.2).
//
// A bucket lock does not block inserts; it forces inserters to take wait-for
// dependencies on the lock holders (Section 4.2.2). The LockCount lives in
// the hash bucket itself (fast existence check); the LockList lives here, in
// "a separate hash table with the bucket address as the key".
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

#include "common/spin_latch.h"
#include "common/types.h"
#include "storage/hash_index.h"
#include "util/bits.h"

namespace mvstore {

class BucketLockTable {
 public:
  static constexpr uint32_t kPartitions = 64;

  /// Acquire a bucket lock for `holder`. Multiple transactions can hold the
  /// same bucket locked.
  void Lock(HashIndex::Bucket* bucket, TxnId holder) {
    Partition& p = PartitionFor(bucket);
    SpinLatchGuard guard(p.latch);
    p.lists[bucket].push_back(holder);
    HashIndex::IncrBucketLockCount(*bucket);
  }

  /// Release `holder`'s lock on `bucket`.
  void Unlock(HashIndex::Bucket* bucket, TxnId holder) {
    Partition& p = PartitionFor(bucket);
    SpinLatchGuard guard(p.latch);
    auto it = p.lists.find(bucket);
    if (it == p.lists.end()) return;
    auto& holders = it->second;
    for (size_t i = 0; i < holders.size(); ++i) {
      if (holders[i] == holder) {
        holders[i] = holders.back();
        holders.pop_back();
        HashIndex::DecrBucketLockCount(*bucket);
        break;
      }
    }
    if (holders.empty()) p.lists.erase(it);
  }

  /// Snapshot of current holders. Used by inserters to take wait-for
  /// dependencies; check the bucket's LockCount first to skip the latch on
  /// the (common) unlocked path.
  std::vector<TxnId> Holders(HashIndex::Bucket* bucket) {
    Partition& p = PartitionFor(bucket);
    SpinLatchGuard guard(p.latch);
    auto it = p.lists.find(bucket);
    return it == p.lists.end() ? std::vector<TxnId>{} : it->second;
  }

 private:
  struct alignas(kCacheLineSize) Partition {
    SpinLatch latch;
    std::unordered_map<HashIndex::Bucket*, std::vector<TxnId>> lists
        GUARDED_BY(latch);
  };

  Partition& PartitionFor(HashIndex::Bucket* bucket) {
    return partitions_[HashInt64(reinterpret_cast<uint64_t>(bucket)) %
                       kPartitions];
  }

  std::array<Partition, kPartitions> partitions_;
};

}  // namespace mvstore
