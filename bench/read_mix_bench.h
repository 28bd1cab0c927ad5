// Shared driver for the short read-only transaction mix experiments
// (paper Figures 6 and 7).
#pragma once

#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

namespace mvstore {
namespace bench {

/// Fixed MPL; x-axis = fraction of read-only transactions (R=10, W=0) mixed
/// with update transactions (R=10, W=2); Read Committed.
inline int RunReadMixBench(int argc, char** argv, uint64_t default_rows,
                           const char* figure_name) {
  Flags flags(argc, argv, {"rows", "full", "seconds", "threads", "scheme",
                           "group", "json"});
  const uint64_t rows =
      flags.GetUint("rows", flags.Has("full") ? 10000000 : default_rows);
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("# %s: read-only mix, N=%llu, MPL=%u, Read Committed\n",
              figure_name, static_cast<unsigned long long>(rows), threads);
  std::printf("%-10s", "read_pct");
  std::vector<Scheme> schemes = SchemesToRun(flags);
  for (Scheme s : schemes) std::printf("%14s", SchemeName(s));
  std::printf("   (transactions/sec)\n");

  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<TableId> tables;
  std::vector<std::string> labels;
  for (Scheme s : schemes) {
    DatabaseOptions opts = MakeOptions(s, flags);
    labels.push_back(SchemeName(s));
    dbs.push_back(std::make_unique<Database>(opts));
    tables.push_back(workload::CreateAndLoadRows(*dbs.back(), rows));
  }

  for (uint32_t read_pct : {0u, 20u, 40u, 60u, 80u, 100u}) {
    std::printf("%-10u", read_pct);
    for (size_t i = 0; i < schemes.size(); ++i) {
      Database& db = *dbs[i];
      TableId table = tables[i];
      LatencyProbe probe(db, obs::Hist::kCommitTotal);
      RunResult r = RunFixedDuration(
          threads, seconds,
          [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
            Random rng(0xFEED + tid);
            while (!stop.load(std::memory_order_relaxed)) {
              Status s;
              if (rng.PercentChance(read_pct)) {
                s = workload::RunReadOnlyTxn(db, table, rng, rows, 10,
                                             IsolationLevel::kReadCommitted);
              } else {
                s = workload::RunUpdateTxn(db, table, rng, rows, 10, 2,
                                           IsolationLevel::kReadCommitted);
              }
              if (s.ok()) {
                ++c.committed;
              } else {
                ++c.aborted;
              }
            }
          });
      probe.Finish();
      std::printf("%14.0f", r.tps());
      // read_pct is the x-axis here; encode it in the scheme label so the
      // common row shape stays {bench, scheme, threads, tps, aborts, ...}.
      json.AddRow(labels[i] + "@read" + std::to_string(read_pct), threads,
                  r.tps(), r.aborted, probe);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace bench
}  // namespace mvstore
