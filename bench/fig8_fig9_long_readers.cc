// Figures 8 and 9: impact of long read-only transactions.
//
// Fixed MPL; x of the workers run long serializable read-only transactions
// touching 10% of the table, the remaining MPL-x run short update
// transactions (R=10, W=2). One binary prints both series: update
// throughput (Figure 8) and read throughput in rows/sec terms of completed
// long readers (Figure 9).
//
// Expected shape: at x=1, 1V update throughput collapses (~75% drop in the
// paper -- the long reader's shared locks starve updaters); the MV schemes
// drop only a few percent. By x=MPL/2 the MV update throughput is orders of
// magnitude above 1V.
#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

using namespace mvstore;
using namespace mvstore::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"rows", "full", "seconds", "threads", "touches",
                           "scheme", "group", "json"});
  const uint64_t rows =
      flags.GetUint("rows", flags.Has("full") ? 10000000 : 100000);
  const double seconds = flags.GetDouble("seconds", 0.6);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  const uint64_t touches = flags.GetUint("touches", rows / 10);
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("# Figures 8+9: long serializable readers (touch %llu rows = "
              "10%% of N=%llu), short updates R=10 W=2, MPL=%u\n",
              static_cast<unsigned long long>(touches),
              static_cast<unsigned long long>(rows), threads);

  std::vector<Scheme> schemes = SchemesToRun(flags);
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<TableId> tables;
  std::vector<std::string> labels;
  for (Scheme s : schemes) {
    DatabaseOptions opts = MakeOptions(s, flags);
    labels.push_back(SchemeName(s));
    dbs.push_back(std::make_unique<Database>(opts));
    tables.push_back(workload::CreateAndLoadRows(*dbs.back(), rows));
  }

  std::printf("%-10s", "readers");
  for (Scheme s : schemes) {
    std::printf("%14s", (std::string(SchemeName(s)) + " upd/s").c_str());
  }
  for (Scheme s : schemes) {
    std::printf("%14s", (std::string(SchemeName(s)) + " rd/s").c_str());
  }
  std::printf("\n");

  std::vector<uint32_t> reader_counts;
  for (uint32_t x : {0u, 1u, 2u, threads / 4, threads / 2,
                     3 * threads / 4, threads}) {
    if (reader_counts.empty() || x > reader_counts.back()) {
      reader_counts.push_back(x);
    }
  }

  for (uint32_t x : reader_counts) {
    std::vector<double> upd(schemes.size()), rd(schemes.size());
    for (size_t i = 0; i < schemes.size(); ++i) {
      Database& db = *dbs[i];
      TableId table = tables[i];
      RunResult r = RunFixedDuration(
          threads, seconds,
          [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
            Random rng(0xD00D + tid);
            uint64_t checksum = 0;
            if (tid < x) {
              // Long serializable read-only transactions.
              while (!stop.load(std::memory_order_relaxed)) {
                Status s = workload::RunLongReadTxn(db, table, rng, rows,
                                                    touches, &checksum);
                if (s.ok()) {
                  ++c.committed_class2;
                } else {
                  ++c.aborted;
                }
              }
            } else {
              while (!stop.load(std::memory_order_relaxed)) {
                Status s = workload::RunUpdateTxn(
                    db, table, rng, rows, 10, 2,
                    IsolationLevel::kReadCommitted);
                if (s.ok()) {
                  ++c.committed;
                } else {
                  ++c.aborted;
                }
              }
            }
          });
      upd[i] = r.tps();
      // Read throughput reported as rows read/sec by long readers.
      rd[i] = r.tps_class2() * static_cast<double>(touches);
      json.AddRow(labels[i] + "@readers" + std::to_string(x) + "/upd",
                  threads, upd[i], r.aborted);
      json.AddRow(labels[i] + "@readers" + std::to_string(x) + "/rd", threads,
                  rd[i], r.aborted);
    }
    std::printf("%-10u", x);
    for (double v : upd) std::printf("%14.0f", v);
    for (double v : rd) std::printf("%14.0f", v);
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
