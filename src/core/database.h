// Database: the library's public facade.
//
// Wraps the three concurrency-control engines behind a single API so that
// applications, tests and benchmarks can switch schemes with one option:
//
//   DatabaseOptions opts;
//   opts.scheme = Scheme::kMultiVersionOptimistic;   // "MV/O"
//   Database db(opts);
//   TableId accounts = db.CreateTable(...);
//   Txn* txn = db.Begin(IsolationLevel::kSerializable);
//   db.Read(txn, accounts, 0, key, &row);
//   ...
//   Status s = db.Commit(txn);
//
// All data operations return Status; Status::IsAborted() means the
// transaction has already been rolled back and the handle is dead. The
// caller simply retries with a fresh transaction.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/port.h"
#include "common/status.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "storage/table.h"

namespace mvstore {

/// Everything EngineOptions holds (log, memory, observability) plus the
/// scheme, the durability files, and each scheme's own settings.
struct DatabaseOptions : EngineOptions {
  /// Sanitizer builds (TSan/ASan/UBSan, common/port.h) default the memory
  /// subsystem off: recycling hides object lifetimes from the tools. Tests
  /// that target the slabs opt back in.
  DatabaseOptions() { use_slab_allocator = !kSanitizerBuild; }

  Scheme scheme = Scheme::kMultiVersionOptimistic;

  /// Checkpoint file location used by Database::Checkpoint() and by
  /// Database::Open() at recovery. Empty: no checkpointing; recovery is a
  /// full-log replay.
  std::string checkpoint_path;
  /// Worker threads for log replay in Database::Open (the paper's "multiple
  /// log streams" observation: records partition by primary key and replay
  /// in end-timestamp order per key). 1 = serial replay.
  uint32_t recovery_threads = 1;

  /// MV engines: see MVEngineOptions.
  bool honor_locks = true;
  uint32_t gc_interval_us = 2000;
  uint32_t deadlock_interval_us = 1000;

  /// 1V engine: lock-wait timeout (deadlock breaking).
  uint64_t lock_timeout_us = 2000;
};

class MVEngine;
class SVEngine;
struct RecoveryReport;

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Recover-then-continue: construct a database, let `define_schema` create
  /// the tables (the schema is code — extractor function pointers — so it
  /// cannot live in the log), then replay the durable state on
  /// options.log_path / options.checkpoint_path: load the checkpoint if one
  /// exists, replay the log tail (torn tail truncated, counted, and
  /// reported), and advance the commit clock past every replayed timestamp
  /// so the continued log stays correctly ordered. On success the returned
  /// database holds exactly the recovered state and appends to the same log.
  /// On failure returns nullptr and sets *status (if non-null).
  static std::unique_ptr<Database> Open(
      const DatabaseOptions& options,
      const std::function<void(Database&)>& define_schema,
      Status* status = nullptr, RecoveryReport* report = nullptr);

  Scheme scheme() const { return options_.scheme; }
  const DatabaseOptions& options() const { return options_; }

  /// Create a table; index 0 is the primary index.
  TableId CreateTable(TableDef def);

  /// Number of payload bytes per row of `table_id`.
  uint32_t PayloadSize(TableId table_id);

  /// Number of tables created so far.
  uint32_t NumTables();

  /// Number of indexes on `table_id` (valid index ids are 0..n-1). The
  /// service layer validates wire-supplied ids against this before
  /// touching the engine.
  uint32_t NumIndexes(TableId table_id);

  /// Name a table was created with.
  const std::string& TableName(TableId table_id);

  /// Primary (index 0) key of a payload of `table_id`.
  uint64_t PrimaryKeyOfPayload(TableId table_id, const void* payload);

  /// --- transactions ---------------------------------------------------------

  Txn* Begin(IsolationLevel isolation, bool read_only = false);
  Status Commit(Txn* txn);
  void Abort(Txn* txn);

  /// --- operations -----------------------------------------------------------

  /// Copy the row with `key` (via `index_id`) into `out`.
  Status Read(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
              void* out);
  /// Visit every row matching `key` and the optional residual predicate.
  Status Scan(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
              const std::function<bool(const void*)>& residual,
              const std::function<bool(const void*)>& consumer);
  /// Visit every visible row whose `index_id` key lies in [lo, hi], in
  /// ascending key order. Requires an ordered index
  /// (IndexDef::ordered). MV: visibility per version at the transaction's
  /// read time; serializable transactions rescan the range at commit and
  /// abort on phantoms. 1V: rows are read under key locks and serializable
  /// scans predicate-lock the range, so conflicting inserts wait or time
  /// out.
  Status ScanRange(Txn* txn, TableId table_id, IndexId index_id, uint64_t lo,
                   uint64_t hi,
                   const std::function<bool(const void*)>& residual,
                   const std::function<bool(const void*)>& consumer);
  /// Visit every visible row of the table (full-table scan through the
  /// primary index). MV: snapshot-consistent at the transaction's read
  /// time. 1V: per-row cursor stability only.
  Status ScanTable(Txn* txn, TableId table_id,
                   const std::function<bool(const void*)>& consumer);
  Status Insert(Txn* txn, TableId table_id, const void* payload);
  Status Update(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
                const std::function<void(void*)>& mutator);
  Status Delete(Txn* txn, TableId table_id, IndexId index_id, uint64_t key);

  /// Run `body(txn)` with automatic retry on abort. `body` returns a Status;
  /// non-abort failures are returned as-is after an internal Abort.
  Status RunTransaction(IsolationLevel isolation,
                        const std::function<Status(Txn*)>& body,
                        uint32_t max_retries = 1000);

  /// --- durability -------------------------------------------------------------

  /// The engine's group-commit logger (valid in every LogMode; inert when
  /// kDisabled).
  Logger& logger();

  /// Health of the log sink: OK, or Internal once an open/write failure has
  /// dropped bytes (also surfaced on stderr at construction). Commit turns a
  /// broken sink into read-only mode (below) the moment a write transaction
  /// trips over it.
  Status log_status() { return logger().sink_status(); }

  /// True once the database has degraded to read-only mode: a log write or
  /// fsync failed, so write durability can no longer be promised. Writes are
  /// refused with Status::ReadOnly(); reads, scans, stats and read-only
  /// procedures keep serving. The mode is sticky for the life of the
  /// process — recovery from the durable state (restart + Database::Open) is
  /// the only exit (docs/RELIABILITY.md has the operator runbook).
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Force read-only mode (first transition logs `why` to stderr and bumps
  /// the read_only_transitions counter). Called internally on log failure;
  /// public so operators/tests can fence writes deliberately.
  void EnterReadOnlyMode(const char* why);

  /// Write a checkpoint to options.checkpoint_path (see core/checkpoint.h):
  /// rotate the log, scan every table at a consistent point, atomically
  /// publish the checkpoint file, then delete log segments it covers.
  /// InvalidArgument if options.checkpoint_path is empty.
  Status Checkpoint();

  /// Largest commit timestamp any written log record can carry so far.
  Timestamp LastCommitTimestamp();

  /// Raise the commit clock to at least `floor` (recovery only; see
  /// TimestampGenerator::AdvanceTo).
  void AdvanceCommitTimestamp(Timestamp floor);

  /// Serializes checkpoint passes against each other (Checkpointer::Take
  /// locks this): two interleaved writers on the same temp file would
  /// publish a checksum-corrupt checkpoint after the covered segments were
  /// already deleted — an unrecoverable state.
  Mutex& checkpoint_mutex() RETURN_CAPABILITY(checkpoint_mutex_) {
    return checkpoint_mutex_;
  }

  /// --- registered procedures --------------------------------------------------
  ///
  /// A procedure is a whole transaction behind one call: the service layer
  /// (src/server/) dispatches a single request frame to it, so one network
  /// round trip begins, runs, and commits a full transaction (the TATP ops
  /// in workload/tatp.h register themselves this way). The procedure owns
  /// its transaction lifecycle — typically via RunTransaction — and returns
  /// the commit status; `result` carries optional reply bytes.

  using ProcedureFn = std::function<Status(
      Database& db, const uint8_t* arg, size_t arg_len,
      std::vector<uint8_t>* result)>;

  /// Register `fn` under `name`; returns its id (stable for the lifetime of
  /// the database). Re-registering a name replaces the function but keeps
  /// the id. Registration is cheap but takes the registry writer lock; do it
  /// at setup, not per request.
  uint32_t RegisterProcedure(const std::string& name, ProcedureFn fn);

  /// Id registered under `name`, or -1.
  int64_t FindProcedure(const std::string& name);

  /// Number of registered procedures (ids are 0..count-1).
  uint32_t NumProcedures();

  /// Name a procedure id was registered under; empty for a bad id.
  std::string ProcedureName(uint32_t id);

  /// Invoke procedure `id`. InvalidArgument for an unknown id; otherwise
  /// whatever the procedure returns (kAborted statuses mean the transaction
  /// inside rolled back and the caller may retry the call).
  ///
  /// Contract for procedures served over the wire: `result` must fit in
  /// one response frame (wire::kMaxFrameBody, 4 MB). A larger result is a
  /// procedure-author bug — the server cannot frame it and reports
  /// Internal to the client even though the procedure's transaction may
  /// already be committed, which makes a blind retry unsafe. Paginate big
  /// exports across calls instead.
  Status CallProcedure(uint32_t id, const uint8_t* arg, size_t arg_len,
                       std::vector<uint8_t>* result);

  /// --- introspection ----------------------------------------------------------

  StatsCollector& stats();

  /// The engine's latency histograms (src/obs/histogram.h). Always valid;
  /// inert when options.enable_latency_histograms is false.
  obs::LatencyHistograms& hists();

  /// All engine counters, including zeros, as name/value pairs — one
  /// uniform shape for the server's STATS procedure to merge with its own
  /// session counters. Sorted by name: the names are a stable scrape
  /// contract (docs/API.md), and sorted output lets scrapers diff two
  /// snapshots line-by-line.
  std::vector<std::pair<std::string, uint64_t>> CounterSnapshot();
  /// The engine behind this database (core/engine_core.h).
  EngineCore& engine() { return *engine_; }
  /// The engine as its concrete type, nullptr under the other schemes:
  /// direct access for tests and benches.
  MVEngine* mv_engine();
  SVEngine* sv_engine();

 private:
  /// Gate for write operations: false once read-only (bumping the
  /// writes_refused counter), flipping the mode on first sight of a broken
  /// sink. `check_sink` false skips the sink probe (per-op fast path; the
  /// sink is probed at commit, where durability is actually promised).
  bool WriteAllowed(bool check_sink);

  /// Run one read-side engine call of `txn`, recording its latency into
  /// `hist` when Begin sampled the transaction (start_ticks != 0) -- the
  /// same decision that times its commit. An unsampled call reads no clock.
  /// start_ticks is loaded before the call: an aborting op kills the handle.
  template <typename Op>
  Status Timed(const Txn* txn, obs::Hist hist, Op&& op) {
    const uint64_t t_start = txn->start_ticks != 0 ? obs::NowTicks() : 0;
    Status s = op();
    if (t_start != 0) hists().RecordSince(hist, t_start);
    return s;
  }

  std::atomic<bool> read_only_{false};

  DatabaseOptions options_;
  std::unique_ptr<EngineCore> engine_;
  Mutex checkpoint_mutex_;

  /// Procedure registry. Reads (Find/Call) take the lock shared and hold it
  /// across the call, so a procedure can never be destroyed mid-execution
  /// by a concurrent re-registration.
  SharedMutex procedures_mutex_;
  std::vector<std::pair<std::string, ProcedureFn>> procedures_
      GUARDED_BY(procedures_mutex_);
};

}  // namespace mvstore
