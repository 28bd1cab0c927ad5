// Recovery-time benchmark: log size x replay threads -> replay seconds.
//
// Builds a synthetic redo log (inserts, updates, deletes with valid
// history), then measures checkpoint-less recovery into a fresh database
// for each scheme across a replay-thread sweep — the paper's "multiple log
// streams" observation as wall-clock numbers. Rows report tps = log records
// replayed per second.
//
//   --txns N      log records to generate (default 20000)
//   --rows R      distinct keys (default 5000)
//   --threads T   max replay threads (sweep 1,2,4,..,T; default hw cap)
//   --scheme X    restrict to one scheme (1V, MV/L, MV/O)
//   --json PATH   machine-readable rows (scheme carries "+tN" thread tag)
#include <cstring>
#include <random>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "bench/harness.h"
#include "common/timing.h"
#include "core/recovery.h"
#include "log/log_record.h"
#include "log/log_segment.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t v0;
  uint64_t v1;
  uint64_t v2;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

/// Synthesize `txns` commit records with a consistent history over up to
/// `rows` keys. Returns the serialized log bytes.
std::vector<uint8_t> BuildLog(uint64_t txns, uint64_t rows,
                              uint64_t* live_rows) {
  std::vector<uint8_t> log;
  std::mt19937_64 rng(1234);
  std::vector<uint64_t> live;
  live.reserve(rows);
  uint64_t next_key = 0;
  Timestamp ts = 0;
  for (uint64_t i = 0; i < txns; ++i) {
    ++ts;
    LogRecordBuilder builder(log);
    builder.BeginRecord(ts, /*txn_id=*/ts);
    const uint64_t dice = rng() % 100;
    if (live.empty() || (dice < 20 && next_key < rows)) {
      Row row{next_key, rng(), rng(), rng()};
      builder.AddInsert(0, &row, sizeof(row));
      live.push_back(next_key);
      ++next_key;
    } else if (dice < 90 || live.size() <= 1) {
      const uint64_t key = live[rng() % live.size()];
      Row before{key, 0, 0, 0};
      Row after = before;
      after.v1 = rng();  // single contiguous diff range
      builder.AddUpdate(0, key, &before, &after, sizeof(Row));
    } else {
      const size_t at = rng() % live.size();
      builder.AddDelete(0, live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    builder.EndRecord();
  }
  *live_rows = live.size();
  return log;
}

}  // namespace
}  // namespace mvstore

int main(int argc, char** argv) {
  using namespace mvstore;
  using namespace mvstore::bench;

  Flags flags(argc, argv, {"txns", "rows", "threads", "scheme", "json"});
  const uint64_t txns = flags.GetUint("txns", 20000);
  const uint64_t rows = flags.GetUint("rows", 5000);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  JsonReporter json(flags, BenchSlug(argv[0]));

  uint64_t live_rows = 0;
  std::vector<uint8_t> log_bytes = BuildLog(txns, rows, &live_rows);
  char path[256];
  std::snprintf(path, sizeof(path), "/tmp/mvstore_recovery_bench_%d",
                ::getpid());
  auto remove_log = [&path] {
    for (const logseg::SegmentFile& seg : logseg::ListSegments(path)) {
      std::remove(seg.path.c_str());
    }
  };
  {
    // One segment holding the whole synthetic log.
    SegmentedLogSink sink(path, SegmentedLogSink::Options{~0ull, false});
    sink.Write(log_bytes.data(), log_bytes.size());
    sink.Sync();
    if (!sink.status().ok()) {
      std::fprintf(stderr, "cannot write %s\n", path);
      remove_log();
      return 1;
    }
  }
  std::printf("log: %llu records, %.1f MB, %llu live rows\n",
              static_cast<unsigned long long>(txns),
              log_bytes.size() / 1e6,
              static_cast<unsigned long long>(live_rows));
  std::printf("%-6s %8s %12s %14s\n", "scheme", "threads", "seconds",
              "records/s");

  for (Scheme scheme : SchemesToRun(flags)) {
    for (uint32_t threads : ThreadSweep(max_threads)) {
      DatabaseOptions opts;
      opts.scheme = scheme;
      opts.log_mode = LogMode::kDisabled;
      Database db(opts);
      TableDef def;
      def.name = "rows";
      def.payload_size = sizeof(Row);
      def.indexes.push_back(IndexDef{&RowKey, rows, true});
      db.CreateTable(def);

      RecoveryOptions recovery;
      recovery.log_path = path;
      recovery.threads = threads;
      RecoveryReport report;
      Timer timer;
      Status s = RecoverDatabase(db, recovery, &report);
      const double seconds = timer.ElapsedSeconds();
      if (!s.ok() || report.records_replayed != txns) {
        std::fprintf(stderr, "recovery failed (%s, %u threads): %s\n",
                     SchemeName(scheme), threads, s.ToString().c_str());
        remove_log();
        return 1;
      }
      const double per_second = txns / seconds;
      std::printf("%-6s %8u %12.3f %14.0f\n", SchemeName(scheme), threads,
                  seconds, per_second);
      json.AddRow(SchemeName(scheme), threads, per_second, 0);
    }
  }
  remove_log();
  return 0;
}
