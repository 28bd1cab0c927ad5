// Contention microbench: pure Begin/Commit loops, zero data access.
//
// Isolates the cross-transaction shared state of the MV hot path -- the
// timestamp clock, the transaction table, the epoch manager, the stat
// counters -- from everything the other benches also measure (index probes,
// version chains, payload copies). Section 6 of the paper singles out
// timestamp acquisition as "the only critical section shared by all
// transactions"; this bench is that critical section in a loop, so it is
// the most sensitive detector of a serialization regression on it.
#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace mvstore;
  using namespace mvstore::bench;

  Flags flags(argc, argv, {"seconds", "threads", "scheme", "group", "json"});
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("# contention: empty Begin/Commit transactions, Read "
              "Committed, %.2fs/point\n", seconds);
  std::printf("%-8s", "threads");
  std::vector<Scheme> schemes = SchemesToRun(flags);
  for (Scheme s : schemes) std::printf("%14s", SchemeName(s));
  std::printf("   (transactions/sec)\n");

  std::vector<std::unique_ptr<Database>> dbs;
  for (Scheme s : schemes) {
    dbs.push_back(std::make_unique<Database>(MakeOptions(s, flags)));
  }

  for (uint32_t threads : ThreadSweep(max_threads)) {
    std::printf("%-8u", threads);
    for (size_t i = 0; i < schemes.size(); ++i) {
      Database& db = *dbs[i];
      RunResult r = RunFixedDuration(
          threads, seconds,
          [&](uint32_t, std::atomic<bool>& stop, WorkerCounters& counters) {
            while (!stop.load(std::memory_order_relaxed)) {
              Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
              if (db.Commit(txn).ok()) {
                ++counters.committed;
              } else {
                ++counters.aborted;
              }
            }
          });
      std::printf("%14.0f", r.tps());
      json.AddRow(SchemeName(schemes[i]), threads, r.tps(), r.aborted);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
