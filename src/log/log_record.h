// Redo log record format.
//
// One record per committed transaction (paper Section 3.2: "Commit ordering
// is determined by transaction end timestamps, which are included in the log
// records"). Updates log the byte-range difference between old and new
// payloads plus fixed metadata (Section 5: "Each update produces a log
// record that stores the difference between the old and new versions, plus
// 8 bytes of metadata"); inserts log the full payload; deletes log the
// primary key.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"

namespace mvstore {

enum class LogOp : uint8_t {
  kInsert = 0,
  kUpdate,
  kDelete,
};

/// Byte-serialized commit record:
///   header:  end_timestamp (8B) | txn_id (8B) | op_count (4B)
///   per op:  op (1B) | table_id (4B) | specific body
///     insert: payload_size (4B) | payload bytes
///     update: key (8B) | diff_offset (4B) | diff_len (4B) | diff bytes
///     delete: key (8B)
/// The update key is the paper's "8 bytes of metadata" per update record;
/// recovery uses it to locate the row the diff applies to.
class LogRecordBuilder {
 public:
  explicit LogRecordBuilder(std::vector<uint8_t>& out) : out_(out) {}

  void BeginRecord(Timestamp end_ts, TxnId txn_id) {
    count_pos_ = 0;
    Put(end_ts);
    Put(txn_id);
    count_pos_ = out_.size();
    Put(uint32_t{0});
    op_count_ = 0;
  }

  void AddInsert(TableId table, const void* payload, uint32_t size) {
    Put(static_cast<uint8_t>(LogOp::kInsert));
    Put(table);
    Put(size);
    PutBytes(payload, size);
    ++op_count_;
  }

  /// Logs the smallest single contiguous byte range where old != new, plus
  /// the primary key of the updated row.
  void AddUpdate(TableId table, uint64_t key, const void* old_payload,
                 const void* new_payload, uint32_t size) {
    const uint8_t* a = static_cast<const uint8_t*>(old_payload);
    const uint8_t* b = static_cast<const uint8_t*>(new_payload);
    uint32_t lo = 0;
    while (lo < size && a[lo] == b[lo]) ++lo;
    uint32_t hi = size;
    while (hi > lo && a[hi - 1] == b[hi - 1]) --hi;
    Put(static_cast<uint8_t>(LogOp::kUpdate));
    Put(table);
    Put(key);
    Put(lo);
    Put(hi - lo);
    PutBytes(b + lo, hi - lo);
    ++op_count_;
  }

  void AddDelete(TableId table, uint64_t key) {
    Put(static_cast<uint8_t>(LogOp::kDelete));
    Put(table);
    Put(key);
    ++op_count_;
  }

  void EndRecord() {
    std::memcpy(out_.data() + count_pos_, &op_count_, sizeof(op_count_));
  }

 private:
  // resize + memcpy rather than vector::insert: same codegen, but insert's
  // range path trips a GCC 12 -Wstringop-overflow false positive when
  // inlined into callers at -O3.
  template <typename T>
  void Put(T value) {
    const size_t old_size = out_.size();
    out_.resize(old_size + sizeof(T));
    std::memcpy(out_.data() + old_size, &value, sizeof(T));
  }
  void PutBytes(const void* data, size_t n) {
    if (n == 0) return;  // an empty diff may pass data == nullptr
    const size_t old_size = out_.size();
    out_.resize(old_size + n);
    std::memcpy(out_.data() + old_size, data, n);
  }

  std::vector<uint8_t>& out_;
  size_t count_pos_ = 0;
  uint32_t op_count_ = 0;
};

/// The end timestamp a serialized record starts with; 0 for a buffer too
/// short to hold one.
inline Timestamp RecordEndTimestamp(const std::vector<uint8_t>& record) {
  Timestamp end_ts = 0;
  if (record.size() >= sizeof(end_ts)) {
    std::memcpy(&end_ts, record.data(), sizeof(end_ts));
  }
  return end_ts;
}

/// Minimal reader for tests: parses one commit record starting at `pos`,
/// returns false when the buffer is exhausted.
struct ParsedLogOp {
  LogOp op;
  TableId table;
  uint32_t offset = 0;  // update only
  std::vector<uint8_t> bytes;
  uint64_t key = 0;  // update and delete
};

struct ParsedLogRecord {
  Timestamp end_ts;
  TxnId txn_id;
  std::vector<ParsedLogOp> ops;
};

inline bool ParseLogRecord(const std::vector<uint8_t>& buf, size_t& pos,
                           ParsedLogRecord* record) {
  auto get = [&](void* dst, size_t n) {
    if (pos + n > buf.size()) return false;
    // n == 0 (an empty diff/payload) would hand memcpy null pointers: an
    // empty vector's data() and an empty buffer's data() are both null,
    // and memcpy declares its arguments nonnull.
    if (n != 0) std::memcpy(dst, buf.data() + pos, n);
    pos += n;
    return true;
  };
  if (pos >= buf.size()) return false;
  uint32_t count = 0;
  if (!get(&record->end_ts, 8) || !get(&record->txn_id, 8) || !get(&count, 4))
    return false;
  record->ops.clear();
  for (uint32_t i = 0; i < count; ++i) {
    ParsedLogOp op;
    uint8_t op_byte = 0;
    if (!get(&op_byte, 1) || !get(&op.table, 4)) return false;
    // A torn or corrupt tail can yield any byte here; an unknown opcode must
    // fail the parse, not fall through with an uninitialized op.
    if (op_byte > static_cast<uint8_t>(LogOp::kDelete)) return false;
    op.op = static_cast<LogOp>(op_byte);
    switch (op.op) {
      case LogOp::kInsert: {
        uint32_t size = 0;
        if (!get(&size, 4)) return false;
        // Bound-check before resize: a garbage length must not trigger a
        // multi-gigabyte allocation on the recovery path.
        if (size > buf.size() - pos) return false;
        op.bytes.resize(size);
        if (!get(op.bytes.data(), size)) return false;
        break;
      }
      case LogOp::kUpdate: {
        uint32_t len = 0;
        if (!get(&op.key, 8) || !get(&op.offset, 4) || !get(&len, 4)) {
          return false;
        }
        if (len > buf.size() - pos) return false;
        op.bytes.resize(len);
        if (!get(op.bytes.data(), len)) return false;
        break;
      }
      case LogOp::kDelete:
        if (!get(&op.key, 8)) return false;
        break;
    }
    record->ops.push_back(std::move(op));
  }
  return true;
}

}  // namespace mvstore
