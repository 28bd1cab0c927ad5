#include "tatp.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"

namespace mvstore {
namespace ledger {
namespace tatp {

namespace {

uint64_t SubscriberKey(const void* p) {
  return static_cast<const SubscriberRow*>(p)->s_id;
}
uint64_t SubscriberNbrKey(const void* p) {
  return static_cast<const SubscriberRow*>(p)->sub_nbr;
}
uint64_t AccessInfoPk(const void* p) {
  const auto* r = static_cast<const AccessInfoRow*>(p);
  return AccessInfoKey(r->s_id, r->ai_type);
}
uint64_t AccessInfoSid(const void* p) {
  return static_cast<const AccessInfoRow*>(p)->s_id;
}
uint64_t SpecialFacilityPk(const void* p) {
  const auto* r = static_cast<const SpecialFacilityRow*>(p);
  return SpecialFacilityKey(r->s_id, r->sf_type);
}
uint64_t SpecialFacilitySid(const void* p) {
  return static_cast<const SpecialFacilityRow*>(p)->s_id;
}
uint64_t CallForwardingPk(const void* p) {
  const auto* r = static_cast<const CallForwardingRow*>(p);
  return CallForwardingKey(r->s_id, r->sf_type, r->start_time);
}
uint64_t CallForwardingSf(const void* p) {
  const auto* r = static_cast<const CallForwardingRow*>(p);
  return CallForwardingSfKey(r->s_id, r->sf_type);
}

TableId CreateTable(Database& db, const char* name, uint32_t payload_size,
                    IndexDef primary, IndexDef secondary) {
  TableDef def;
  def.name = name;
  def.payload_size = payload_size;
  def.indexes.push_back(primary);
  def.indexes.push_back(secondary);
  return db.CreateTable(def);
}

void Populate(Database& db, const TatpDatabase& tatp, uint64_t seed) {
  Random rng(seed);
  for (uint64_t sid = 1; sid <= tatp.subscribers; ++sid) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);

    SubscriberRow sub{};
    sub.s_id = sid;
    sub.sub_nbr = sid;  // spec: sub_nbr is s_id zero-padded to 15 digits
    for (int i = 0; i < 10; ++i) {
      sub.bit[i] = static_cast<uint8_t>(rng.Uniform(2));
      sub.hex[i] = static_cast<uint8_t>(rng.Uniform(16));
      sub.byte2[i] = static_cast<uint8_t>(rng.Uniform(256));
    }
    sub.msc_location = static_cast<uint32_t>(rng.Next());
    sub.vlr_location = static_cast<uint32_t>(rng.Next());
    db.Insert(txn, tatp.subscriber, &sub);

    // 1..4 access-info rows with distinct ai_type.
    const uint8_t types[4] = {1, 2, 3, 4};
    const uint32_t n_ai = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t i = 0; i < n_ai; ++i) {
      AccessInfoRow ai{};
      ai.s_id = sid;
      ai.ai_type = types[i];
      ai.data1 = static_cast<uint8_t>(rng.Uniform(256));
      ai.data2 = static_cast<uint8_t>(rng.Uniform(256));
      std::memset(ai.data3, 'A' + static_cast<int>(rng.Uniform(26)), 3);
      std::memset(ai.data4, 'A' + static_cast<int>(rng.Uniform(26)), 5);
      db.Insert(txn, tatp.access_info, &ai);
    }

    // 1..4 special facilities, each with 0..3 call forwardings.
    const uint32_t n_sf = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t i = 0; i < n_sf; ++i) {
      SpecialFacilityRow sf{};
      sf.s_id = sid;
      sf.sf_type = types[i];
      sf.is_active = rng.PercentChance(85) ? 1 : 0;
      sf.error_cntrl = static_cast<uint8_t>(rng.Uniform(256));
      sf.data_a = static_cast<uint8_t>(rng.Uniform(256));
      std::memset(sf.data_b, 'A' + static_cast<int>(rng.Uniform(26)), 5);
      db.Insert(txn, tatp.special_facility, &sf);

      const uint32_t n_cf = static_cast<uint32_t>(rng.Uniform(4));  // 0..3
      const uint8_t start_times[3] = {0, 8, 16};
      for (uint32_t j = 0; j < n_cf && j < 3; ++j) {
        CallForwardingRow cf{};
        cf.s_id = sid;
        cf.sf_type = sf.sf_type;
        cf.start_time = start_times[j];
        cf.end_time =
            static_cast<uint8_t>(cf.start_time + 1 + rng.Uniform(8));
        cf.numberx = rng.Next() % 1000000000000000ull;
        db.Insert(txn, tatp.call_forwarding, &cf);
      }
    }
    db.Commit(txn);
  }
}

/// Non-uniform subscriber id: ((rand(0,A) | rand(1,N)) % N) + 1, with
/// A = 2^ceil(log2(N))/2 - 1.
uint64_t NonUniformSid(Random& rng, uint64_t subscribers) {
  const uint64_t a = NextPowerOfTwo(subscribers) / 2 - 1;
  return ((rng.UniformRange(0, a) | rng.UniformRange(1, subscribers)) %
          subscribers) +
         1;
}

Status GetSubscriberData(Database& db, const TatpDatabase& tatp, Random& rng,
                         IsolationLevel iso) {
  const uint64_t sid = NonUniformSid(rng, tatp.subscribers);
  Txn* txn = db.Begin(iso, /*read_only=*/true);
  SubscriberRow sub;
  Status s = db.Read(txn, tatp.subscriber, 0, sid, &sub);
  if (s.IsAborted()) return s;
  return db.Commit(txn);
}

Status GetNewDestination(Database& db, const TatpDatabase& tatp, Random& rng,
                         IsolationLevel iso) {
  const uint64_t sid = NonUniformSid(rng, tatp.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(1 + rng.Uniform(4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(3) * 8);
  const uint8_t end_time = static_cast<uint8_t>(1 + rng.Uniform(24));

  Txn* txn = db.Begin(iso, /*read_only=*/true);
  SpecialFacilityRow sf;
  Status s = db.Read(txn, tatp.special_facility, 0,
                     SpecialFacilityKey(sid, sf_type), &sf);
  if (s.IsAborted()) return s;
  if (s.ok() && sf.is_active == 1) {
    // Spec predicate: cf.start_time <= <start_time> AND <end_time> < cf.end_time.
    uint64_t numberx = 0;
    Status scan = db.Scan(
        txn, tatp.call_forwarding, 1, CallForwardingSfKey(sid, sf_type),
        [&](const void* p) {
          const auto* cf = static_cast<const CallForwardingRow*>(p);
          return cf->start_time <= start_time && end_time < cf->end_time;
        },
        [&](const void* p) {
          numberx = static_cast<const CallForwardingRow*>(p)->numberx;
          return true;
        });
    if (scan.IsAborted()) return scan;
    (void)numberx;
  }
  return db.Commit(txn);
}

Status GetAccessData(Database& db, const TatpDatabase& tatp, Random& rng,
                     IsolationLevel iso) {
  const uint64_t sid = NonUniformSid(rng, tatp.subscribers);
  const uint8_t ai_type = static_cast<uint8_t>(1 + rng.Uniform(4));
  Txn* txn = db.Begin(iso, /*read_only=*/true);
  AccessInfoRow ai;
  Status s =
      db.Read(txn, tatp.access_info, 0, AccessInfoKey(sid, ai_type), &ai);
  if (s.IsAborted()) return s;
  return db.Commit(txn);
}

Status UpdateSubscriberData(Database& db, const TatpDatabase& tatp,
                            Random& rng, IsolationLevel iso) {
  const uint64_t sid = NonUniformSid(rng, tatp.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(1 + rng.Uniform(4));
  const uint8_t bit = static_cast<uint8_t>(rng.Uniform(2));
  const uint8_t data_a = static_cast<uint8_t>(rng.Uniform(256));

  Txn* txn = db.Begin(iso);
  Status s = db.Update(txn, tatp.subscriber, 0, sid, [&](void* p) {
    static_cast<SubscriberRow*>(p)->bit[0] = bit;
  });
  if (s.IsAborted()) return s;
  s = db.Update(txn, tatp.special_facility, 0, SpecialFacilityKey(sid, sf_type),
                [&](void* p) {
                  static_cast<SpecialFacilityRow*>(p)->data_a = data_a;
                });
  if (s.IsAborted()) return s;  // NotFound is fine (spec hit rate ~62.5%)
  return db.Commit(txn);
}

Status UpdateLocation(Database& db, const TatpDatabase& tatp, Random& rng,
                      IsolationLevel iso) {
  const uint64_t sub_nbr = NonUniformSid(rng, tatp.subscribers);
  const uint32_t vlr = static_cast<uint32_t>(rng.Next());
  Txn* txn = db.Begin(iso);
  // Lookup by sub_nbr (secondary index), update vlr_location.
  Status s = db.Update(txn, tatp.subscriber, 1, sub_nbr, [&](void* p) {
    static_cast<SubscriberRow*>(p)->vlr_location = vlr;
  });
  if (s.IsAborted()) return s;
  return db.Commit(txn);
}

Status InsertCallForwarding(Database& db, const TatpDatabase& tatp,
                            Random& rng, IsolationLevel iso) {
  const uint64_t sub_nbr = NonUniformSid(rng, tatp.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(1 + rng.Uniform(4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(3) * 8);

  Txn* txn = db.Begin(iso);
  SubscriberRow sub;
  Status s = db.Read(txn, tatp.subscriber, 1, sub_nbr, &sub);
  if (s.IsAborted()) return s;
  if (s.IsNotFound()) return db.Commit(txn);
  const uint64_t sid = sub.s_id;

  // The spec reads the subscriber's special facility types first.
  bool has_sf = false;
  s = db.Scan(txn, tatp.special_facility, 1, sid, nullptr,
              [&](const void* p) {
                has_sf |= static_cast<const SpecialFacilityRow*>(p)->sf_type ==
                          sf_type;
                return true;
              });
  if (s.IsAborted()) return s;

  if (has_sf) {
    CallForwardingRow cf{};
    cf.s_id = sid;
    cf.sf_type = sf_type;
    cf.start_time = start_time;
    cf.end_time = static_cast<uint8_t>(start_time + 1 + rng.Uniform(8));
    cf.numberx = rng.Next() % 1000000000000000ull;
    s = db.Insert(txn, tatp.call_forwarding, &cf);
    if (s.IsAborted()) return s;
    // AlreadyExists is an expected benchmark outcome; commit anyway.
  }
  return db.Commit(txn);
}

Status DeleteCallForwarding(Database& db, const TatpDatabase& tatp,
                            Random& rng, IsolationLevel iso) {
  const uint64_t sub_nbr = NonUniformSid(rng, tatp.subscribers);
  const uint8_t sf_type = static_cast<uint8_t>(1 + rng.Uniform(4));
  const uint8_t start_time = static_cast<uint8_t>(rng.Uniform(3) * 8);

  Txn* txn = db.Begin(iso);
  SubscriberRow sub;
  Status s = db.Read(txn, tatp.subscriber, 1, sub_nbr, &sub);
  if (s.IsAborted()) return s;
  if (s.IsNotFound()) return db.Commit(txn);

  s = db.Delete(txn, tatp.call_forwarding, 0,
                CallForwardingKey(sub.s_id, sf_type, start_time));
  if (s.IsAborted()) return s;  // NotFound is an expected outcome
  return db.Commit(txn);
}

}  // namespace

TatpDatabase LoadTatp(Database& db, uint64_t subscribers, uint64_t seed) {
  TatpDatabase tatp;
  tatp.subscribers = subscribers;
  tatp.subscriber = CreateTable(
      db, "subscriber", sizeof(SubscriberRow),
      IndexDef{&SubscriberKey, subscribers, true},
      IndexDef{&SubscriberNbrKey, subscribers, false});
  tatp.access_info = CreateTable(
      db, "access_info", sizeof(AccessInfoRow),
      IndexDef{&AccessInfoPk, subscribers * 3, true},
      IndexDef{&AccessInfoSid, subscribers, false});
  tatp.special_facility = CreateTable(
      db, "special_facility", sizeof(SpecialFacilityRow),
      IndexDef{&SpecialFacilityPk, subscribers * 3, true},
      IndexDef{&SpecialFacilitySid, subscribers, false});
  tatp.call_forwarding = CreateTable(
      db, "call_forwarding", sizeof(CallForwardingRow),
      IndexDef{&CallForwardingPk, subscribers * 4, true},
      IndexDef{&CallForwardingSf, subscribers * 2, false});
  Populate(db, tatp, seed);
  return tatp;
}

Status RunMixedTxn(Database& db, const TatpDatabase& tatp, Random& rng,
                   IsolationLevel iso) {
  const uint64_t p = rng.Uniform(100);
  if (p < 35) return GetSubscriberData(db, tatp, rng, iso);
  if (p < 45) return GetNewDestination(db, tatp, rng, iso);
  if (p < 80) return GetAccessData(db, tatp, rng, iso);
  if (p < 82) return UpdateSubscriberData(db, tatp, rng, iso);
  if (p < 96) return UpdateLocation(db, tatp, rng, iso);
  if (p < 98) return InsertCallForwarding(db, tatp, rng, iso);
  return DeleteCallForwarding(db, tatp, rng, iso);
}

bool CheckConsistency(Database& db, const TatpDatabase& tatp) {
  constexpr uint64_t kConsistencyChunk = 100;
  for (uint64_t first = 1; first <= tatp.subscribers;
       first += kConsistencyChunk) {
    const uint64_t last =
        std::min(tatp.subscribers, first + kConsistencyChunk - 1);
    Txn* txn = db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
    for (uint64_t sid = first; sid <= last; ++sid) {
      SubscriberRow sub;
      Status s = db.Read(txn, tatp.subscriber, 0, sid, &sub);
      if (!s.ok()) {
        if (!s.IsAborted()) db.Abort(txn);
        return false;
      }
      for (uint8_t sf_type = 1; sf_type <= 4; ++sf_type) {
        SpecialFacilityRow sf;
        const Status sf_status =
            db.Read(txn, tatp.special_facility, 0,
                    SpecialFacilityKey(sid, sf_type), &sf);
        if (sf_status.IsAborted()) return false;
        bool cf_exists = false;
        const Status scan =
            db.Scan(txn, tatp.call_forwarding, 1,
                    CallForwardingSfKey(sid, sf_type), nullptr,
                    [&](const void*) {
                      cf_exists = true;
                      return false;
                    });
        if (scan.IsAborted()) return false;
        if (cf_exists && sf_status.IsNotFound()) {
          db.Abort(txn);
          return false;
        }
      }
    }
    if (!db.Commit(txn).ok()) return false;
  }
  return true;
}

}  // namespace tatp
}  // namespace ledger
}  // namespace mvstore
