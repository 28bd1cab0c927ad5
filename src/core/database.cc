#include "core/database.h"

#include <algorithm>
#include <cstdio>

#include "cc/mv_engine.h"
#include "sv/sv_engine.h"

namespace mvstore {

namespace {

std::unique_ptr<EngineCore> MakeEngine(const DatabaseOptions& options) {
  if (options.scheme == Scheme::kSingleVersion) {
    SVEngineOptions sv;
    static_cast<EngineOptions&>(sv) = options;
    sv.lock_timeout_us = options.lock_timeout_us;
    return std::make_unique<SVEngine>(sv);
  }
  MVEngineOptions mv;
  static_cast<EngineOptions&>(mv) = options;
  mv.honor_locks = options.honor_locks;
  mv.gc_interval_us = options.gc_interval_us;
  mv.deadlock_interval_us = options.deadlock_interval_us;
  return std::make_unique<MVEngine>(mv, options.scheme);
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(std::move(options)), engine_(MakeEngine(options_)) {
  // A dead sink at construction (bad path, permissions, full disk) means
  // every commit from here on would silently lose durability; say so once,
  // loudly. Database::Open turns this into a hard error.
  if (!log_status().ok()) {
    std::fprintf(stderr,
                 "mvstore: database log sink on '%s' is broken; commits will "
                 "NOT be durable (check Database::log_status())\n",
                 options_.log_path.c_str());
  }
}

Database::~Database() = default;

TableId Database::CreateTable(TableDef def) {
  return engine_->CreateTable(std::move(def));
}

uint32_t Database::PayloadSize(TableId table_id) {
  return engine_->table(table_id).payload_size();
}

uint32_t Database::NumTables() { return engine_->catalog().num_tables(); }

uint32_t Database::NumIndexes(TableId table_id) {
  return engine_->table(table_id).num_indexes();
}

const std::string& Database::TableName(TableId table_id) {
  return engine_->table(table_id).name();
}

uint64_t Database::PrimaryKeyOfPayload(TableId table_id, const void* payload) {
  return engine_->table(table_id).IndexKeyOfPayload(0, payload);
}

Logger& Database::logger() { return engine_->logger(); }

Timestamp Database::LastCommitTimestamp() { return engine_->CommitClock(); }

void Database::AdvanceCommitTimestamp(Timestamp floor) {
  engine_->AdvanceCommitClock(floor);
}

Txn* Database::Begin(IsolationLevel isolation, bool read_only) {
  return engine_->BeginTxn(isolation, read_only);
}

void Database::EnterReadOnlyMode(const char* why) {
  bool expected = false;
  if (!read_only_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // already degraded; first transition wins
  }
  stats().Add(Stat::kReadOnlyTransitions);
  std::fprintf(stderr,
               "mvstore: entering READ-ONLY mode (%s); writes are refused "
               "with kReadOnly until restart + recovery (see "
               "docs/RELIABILITY.md)\n",
               why);
}

bool Database::WriteAllowed(bool check_sink) {
  if (MVSTORE_UNLIKELY(read_only_.load(std::memory_order_acquire))) {
    stats().Add(Stat::kWritesRefusedReadOnly);
    return false;
  }
  if (check_sink && options_.log_mode != LogMode::kDisabled &&
      MVSTORE_UNLIKELY(!log_status().ok())) {
    EnterReadOnlyMode("log sink reported failure");
    stats().Add(Stat::kWritesRefusedReadOnly);
    return false;
  }
  return true;
}

Status Database::Commit(Txn* txn) {
  const bool has_writes = engine_->HasWrites(txn);
  if (has_writes && MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/true))) {
    // Refuse before anything becomes visible or reaches the log: roll the
    // transaction back and report the degradation instead of acknowledging
    // a commit that could never be durable.
    engine_->Abort(txn);
    return Status::ReadOnly();
  }
  Status s = engine_->Commit(txn);
  if (has_writes && options_.log_mode != LogMode::kDisabled &&
      MVSTORE_UNLIKELY(!log_status().ok())) {
    EnterReadOnlyMode("log write/fsync failure during commit");
    if (s.ok() && options_.log_mode == LogMode::kSync) {
      // The engine committed in memory but the synchronous flush this ack
      // would have vouched for failed: the outcome is NOT durable. Report
      // kReadOnly so the caller treats the transaction as failed (the
      // commit-durability contract table in docs/RELIABILITY.md).
      return Status::ReadOnly();
    }
  }
  return s;
}

void Database::Abort(Txn* txn) { engine_->Abort(txn); }

Status Database::Read(Txn* txn, TableId table_id, IndexId index_id,
                      uint64_t key, void* out) {
  stats().Add(Stat::kReads);
  return Timed(txn, obs::Hist::kReadLatency, [&] {
    return engine_->Read(txn, table_id, index_id, key, out);
  });
}

Status Database::Scan(Txn* txn, TableId table_id, IndexId index_id,
                      uint64_t key,
                      const std::function<bool(const void*)>& residual,
                      const std::function<bool(const void*)>& consumer) {
  return Timed(txn, obs::Hist::kScanLatency, [&] {
    return engine_->Scan(txn, table_id, index_id, key, residual, consumer);
  });
}

Status Database::ScanRange(Txn* txn, TableId table_id, IndexId index_id,
                           uint64_t lo, uint64_t hi,
                           const std::function<bool(const void*)>& residual,
                           const std::function<bool(const void*)>& consumer) {
  return Timed(txn, obs::Hist::kScanLatency, [&] {
    return engine_->ScanRange(txn, table_id, index_id, lo, hi, residual,
                              consumer);
  });
}

Status Database::ScanTable(Txn* txn, TableId table_id,
                           const std::function<bool(const void*)>& consumer) {
  return Timed(txn, obs::Hist::kScanLatency,
               [&] { return engine_->ScanTable(txn, table_id, consumer); });
}

Status Database::Insert(Txn* txn, TableId table_id, const void* payload) {
  // Read-only refusal does not abort: the transaction may keep reading and
  // commit its read-only remainder.
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return engine_->Insert(txn, table_id, payload);
}

Status Database::Update(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key,
                        const std::function<void(void*)>& mutator) {
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return engine_->Update(txn, table_id, index_id, key, mutator);
}

Status Database::Delete(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key) {
  if (MVSTORE_UNLIKELY(!WriteAllowed(/*check_sink=*/false))) {
    return Status::ReadOnly();
  }
  return engine_->Delete(txn, table_id, index_id, key);
}

Status Database::RunTransaction(IsolationLevel isolation,
                                const std::function<Status(Txn*)>& body,
                                uint32_t max_retries) {
  Status s;
  for (uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    Txn* txn = Begin(isolation);
    s = body(txn);
    if (s.IsAborted()) continue;  // already rolled back; retry
    if (!s.ok()) {
      Abort(txn);
      return s;
    }
    s = Commit(txn);
    if (!s.IsAborted()) return s;
  }
  return s;
}

StatsCollector& Database::stats() { return engine_->stats(); }

obs::LatencyHistograms& Database::hists() { return engine_->hists(); }

MVEngine* Database::mv_engine() {
  return scheme() == Scheme::kSingleVersion
             ? nullptr
             : static_cast<MVEngine*>(engine_.get());
}

SVEngine* Database::sv_engine() {
  return scheme() == Scheme::kSingleVersion
             ? static_cast<SVEngine*>(engine_.get())
             : nullptr;
}

std::vector<std::pair<std::string, uint64_t>> Database::CounterSnapshot() {
  StatsCollector& s = stats();
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(static_cast<uint32_t>(Stat::kNumStats));
  for (uint32_t i = 0; i < static_cast<uint32_t>(Stat::kNumStats); ++i) {
    out.emplace_back(StatName(static_cast<Stat>(i)),
                     s.Get(static_cast<Stat>(i)));
  }
  // Sorted by name (the stable-name scrape contract, docs/API.md): scrapers
  // diff consecutive snapshots line-by-line.
  std::sort(out.begin(), out.end());
  return out;
}

uint32_t Database::RegisterProcedure(const std::string& name,
                                     ProcedureFn fn) {
  WriterLock lock(procedures_mutex_);
  for (uint32_t i = 0; i < procedures_.size(); ++i) {
    if (procedures_[i].first == name) {
      procedures_[i].second = std::move(fn);
      return i;
    }
  }
  procedures_.emplace_back(name, std::move(fn));
  return static_cast<uint32_t>(procedures_.size() - 1);
}

int64_t Database::FindProcedure(const std::string& name) {
  ReaderLock lock(procedures_mutex_);
  for (uint32_t i = 0; i < procedures_.size(); ++i) {
    if (procedures_[i].first == name) return i;
  }
  return -1;
}

uint32_t Database::NumProcedures() {
  ReaderLock lock(procedures_mutex_);
  return static_cast<uint32_t>(procedures_.size());
}

std::string Database::ProcedureName(uint32_t id) {
  ReaderLock lock(procedures_mutex_);
  return id < procedures_.size() ? procedures_[id].first : std::string();
}

Status Database::CallProcedure(uint32_t id, const uint8_t* arg,
                               size_t arg_len, std::vector<uint8_t>* result) {
  ReaderLock lock(procedures_mutex_);
  if (id >= procedures_.size()) return Status::InvalidArgument();
  return procedures_[id].second(*this, arg, arg_len, result);
}

}  // namespace mvstore
