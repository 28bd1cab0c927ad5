// Shared driver for the homogeneous-workload scalability experiments
// (paper Figures 4 and 5).
#pragma once

#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

namespace mvstore {
namespace bench {

/// Throughput of the R=10/W=2 update workload at each multiprogramming
/// level, for each scheme, printed as a paper-style table.
inline int RunScalabilityBench(int argc, char** argv, uint64_t default_rows,
                               const char* figure_name) {
  Flags flags(argc, argv, {"rows", "full", "seconds", "threads", "reads",
                           "writes", "scheme", "group", "json"});
  const uint64_t rows =
      flags.GetUint("rows", flags.Has("full") ? 10000000 : default_rows);
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  const uint32_t reads = static_cast<uint32_t>(flags.GetUint("reads", 10));
  const uint32_t writes = static_cast<uint32_t>(flags.GetUint("writes", 2));
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("# %s: homogeneous workload, R=%u W=%u, N=%llu rows, "
              "Read Committed, %.2fs/point\n",
              figure_name, reads, writes,
              static_cast<unsigned long long>(rows), seconds);
  std::printf("%-8s", "threads");
  std::vector<Scheme> schemes = SchemesToRun(flags);
  for (Scheme s : schemes) std::printf("%14s", SchemeName(s));
  std::printf("   (transactions/sec)\n");

  std::vector<uint32_t> sweep = ThreadSweep(max_threads);
  // One database per scheme, reused across thread counts (as in the paper:
  // the table is loaded once).
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<TableId> tables;
  std::vector<std::string> labels;
  for (Scheme s : schemes) {
    DatabaseOptions opts = MakeOptions(s, flags);
    labels.push_back(SchemeName(s));
    dbs.push_back(std::make_unique<Database>(opts));
    tables.push_back(workload::CreateAndLoadRows(*dbs.back(), rows));
  }

  for (uint32_t threads : sweep) {
    std::printf("%-8u", threads);
    for (size_t i = 0; i < schemes.size(); ++i) {
      Database& db = *dbs[i];
      TableId table = tables[i];
      LatencyProbe probe(db, obs::Hist::kCommitTotal);
      RunResult r = RunFixedDuration(
          threads, seconds,
          [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& counters) {
            Random rng(0xC0FFEE + tid);
            while (!stop.load(std::memory_order_relaxed)) {
              Status s = workload::RunUpdateTxn(
                  db, table, rng, rows, reads, writes,
                  IsolationLevel::kReadCommitted);
              if (s.ok()) {
                ++counters.committed;
              } else {
                ++counters.aborted;
              }
            }
          });
      probe.Finish();
      std::printf("%14.0f", r.tps());
      json.AddRow(labels[i], threads, r.tps(), r.aborted, probe);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace bench
}  // namespace mvstore
