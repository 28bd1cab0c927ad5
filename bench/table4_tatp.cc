// Table 4: TATP throughput per scheme (paper: 20M subscribers, 24 threads,
// Read Committed; several million transactions/sec, 1V ahead of both MV
// schemes by ~1.35x).
#include "bench/harness.h"
#include "common/random.h"
#include "workload/tatp.h"

using namespace mvstore;
using namespace mvstore::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"subscribers", "full", "seconds", "threads",
                           "scheme", "group", "json"});
  const uint64_t subscribers =
      flags.GetUint("subscribers", flags.Has("full") ? 20000000 : 100000);
  const double seconds = flags.GetDouble("seconds", 1.0);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));

  std::printf("# Table 4: TATP, %llu subscribers, MPL=%u, Read Committed\n",
              static_cast<unsigned long long>(subscribers), threads);
  std::printf("%-6s %20s %14s\n", "", "transactions/sec", "abort rate");

  JsonReporter json(flags, "table4_tatp");
  for (Scheme scheme : SchemesToRun(flags)) {
    DatabaseOptions opts = MakeOptions(scheme, flags);
    Database db(opts);
    tatp::TatpDatabase tatp = tatp::LoadTatp(db, subscribers);
    RunResult r = RunFixedDuration(
        threads, seconds,
        [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
          Random rng(0xACE + tid);
          while (!stop.load(std::memory_order_relaxed)) {
            Status s = tatp::RunTatpTxn(db, tatp, rng, tatp::PickTxnType(rng));
            if (s.ok()) {
              ++c.committed;
            } else {
              ++c.aborted;
            }
          }
        });
    std::printf("%-6s %20.0f %13.2f%%\n", SchemeName(scheme), r.tps(),
                100.0 * r.abort_rate());
    json.AddRow(SchemeName(scheme), threads, r.tps(), r.aborted);
    std::fflush(stdout);
  }
  return 0;
}
