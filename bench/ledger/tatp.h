// The ledger's own copy of the TATP workload (paper Section 5.3; spec at
// tatpbenchmark.sourceforge.net): schema, population, the Table 4 mix and
// its seven transactions.
//
// It reproduces src/workload/tatp.{h,cc} as they stood when the ledger was
// defined, draw for draw, and the ledger uses nothing from src/workload. A
// change to the library's generators therefore cannot move the benchmark's
// workload; a change here is a change to the benchmark.
#pragma once

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "core/database.h"

namespace mvstore {
namespace ledger {
namespace tatp {

struct SubscriberRow {
  uint64_t s_id;
  uint64_t sub_nbr;   // numeric rendering of the 15-digit string
  uint8_t bit[10];    // bit_1..bit_10
  uint8_t hex[10];    // hex_1..hex_10
  uint8_t byte2[10];  // byte2_1..byte2_10
  uint16_t pad;
  uint32_t msc_location;
  uint32_t vlr_location;
};

struct AccessInfoRow {
  uint64_t s_id;
  uint8_t ai_type;  // 1..4
  uint8_t data1;
  uint8_t data2;
  char data3[3];
  char data4[5];
  char pad[3];
};

struct SpecialFacilityRow {
  uint64_t s_id;
  uint8_t sf_type;  // 1..4
  uint8_t is_active;
  uint8_t error_cntrl;
  uint8_t data_a;
  char data_b[5];
  char pad[7];
};

struct CallForwardingRow {
  uint64_t s_id;
  uint8_t sf_type;
  uint8_t start_time;  // 0, 8, 16
  uint8_t end_time;    // start_time + 1..8
  char pad[5];
  uint64_t numberx;
};

/// Composite keys (64-bit packing).
inline uint64_t AccessInfoKey(uint64_t s_id, uint8_t ai_type) {
  return s_id * 4 + (ai_type - 1);
}
inline uint64_t SpecialFacilityKey(uint64_t s_id, uint8_t sf_type) {
  return s_id * 4 + (sf_type - 1);
}
inline uint64_t CallForwardingKey(uint64_t s_id, uint8_t sf_type,
                                  uint8_t start_time) {
  return (s_id * 4 + (sf_type - 1)) * 4 + start_time / 8;
}
/// Secondary key: all call-forwarding rows of (s_id, sf_type).
inline uint64_t CallForwardingSfKey(uint64_t s_id, uint8_t sf_type) {
  return s_id * 4 + (sf_type - 1);
}

struct TatpDatabase {
  TableId subscriber;
  TableId access_info;
  TableId special_facility;
  TableId call_forwarding;
  uint64_t subscribers;
};

/// Create the four tables and load `subscribers` subscribers by the spec's
/// population rules, one transaction per subscriber.
TatpDatabase LoadTatp(Database& db, uint64_t subscribers, uint64_t seed);

/// Run one transaction of the Table 4 mix (80% read, 16% update, 2% insert,
/// 2% delete), every parameter drawn from `rng`. Returns the commit status;
/// kAborted means rolled back.
Status RunMixedTxn(Database& db, const TatpDatabase& tatp, Random& rng,
                   IsolationLevel iso);

/// The spec's consistency rule: every call-forwarding row belongs to an
/// existing special facility of an existing subscriber. Checked
/// kConsistencyChunk subscribers per serializable transaction, because 1V
/// keeps a reader's locks in a list it searches linearly and one
/// transaction over every subscriber takes minutes at 100K subscribers.
/// Meant for a quiesced database, where the split weakens nothing.
bool CheckConsistency(Database& db, const TatpDatabase& tatp);

}  // namespace tatp
}  // namespace ledger
}  // namespace mvstore
