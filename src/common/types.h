// Central type aliases and enums shared across the engine.
#pragma once

#include <cstdint>

namespace mvstore {

/// Logical commit/begin timestamp. Drawn from one global monotonically
/// increasing counter (paper Section 2.4). 63 usable bits; bit 63 of version
/// words discriminates timestamps from transaction IDs.
using Timestamp = uint64_t;

/// Transaction identifier. 54 usable bits so it fits in the WriteLock field
/// of the MV/L lock word (paper Section 4.1.1).
using TxnId = uint64_t;

using TableId = uint32_t;
using IndexId = uint32_t;

/// Isolation levels supported by all three engines (paper Sections 3.4, 4.3).
enum class IsolationLevel : uint8_t {
  kReadCommitted = 0,
  kSnapshot,
  kRepeatableRead,
  kSerializable,
};

inline const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadCommitted:
      return "ReadCommitted";
    case IsolationLevel::kSnapshot:
      return "Snapshot";
    case IsolationLevel::kRepeatableRead:
      return "RepeatableRead";
    case IsolationLevel::kSerializable:
      return "Serializable";
  }
  return "Unknown";
}

/// Concurrency-control scheme, matching the paper's labels:
/// 1V (single-version locking), MV/L (multiversion pessimistic),
/// MV/O (multiversion optimistic).
enum class Scheme : uint8_t {
  kSingleVersion = 0,  // "1V"
  kMultiVersionLocking,    // "MV/L"
  kMultiVersionOptimistic,  // "MV/O"
};

inline const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSingleVersion:
      return "1V";
    case Scheme::kMultiVersionLocking:
      return "MV/L";
    case Scheme::kMultiVersionOptimistic:
      return "MV/O";
  }
  return "Unknown";
}

/// Opaque transaction handle (core/engine_core.h). Each engine derives its
/// own transaction type from it (Transaction for MV, SVTransaction for 1V)
/// and owns the object between Begin and Commit/Abort; a kAborted status
/// from any operation means the engine already rolled the transaction back
/// and the handle is dead.
class Txn {
 public:
  /// obs::NowTicks() at Begin when Begin sampled this transaction
  /// (EngineCore::SampleStartTicks), else 0. Owning thread only. A sampled
  /// transaction times its reads, scans, commit phases and lifetime; an
  /// unsampled one reads no clock.
  uint64_t start_ticks = 0;

 protected:
  Txn() = default;
  ~Txn() = default;
};

}  // namespace mvstore
