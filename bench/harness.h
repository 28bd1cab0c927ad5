// Shared benchmark harness: fixed-duration multi-threaded throughput runs
// with paper-style tabular output.
//
// Reproduces the experimental methodology of paper Section 5: a fixed
// multiprogramming level (one worker thread per concurrent transaction, no
// think time), throughput measured over a fixed wall-clock window, swept
// over thread counts / read mixes / isolation levels depending on the
// figure. The paper measures on a 2-socket 24-thread box; DefaultMaxThreads
// below adapts the multiprogramming cap to the host.
//
// The common flags (each binary reads a subset; --help lists its own, and
// a flag it does not read is rejected):
//   --seconds S     measurement window per data point (default 0.5)
//   --rows N        table size (default differs per experiment)
//   --threads T     max multiprogramming level (default min(24, hw))
//   --scheme X      restrict to one scheme (1V, MV/L, MV/O)
//   --json PATH     additionally emit machine-readable result rows
//   --full          paper-scale parameters (10M rows etc.)
//   --group US      group-commit window (MakeOptions)
// Defaults are sized so that `for b in build/bench/*; do $b; done` finishes
// in minutes on a laptop; --full reproduces the paper's scale.
// scripts/bench_report.sh runs the suite and merges the --json outputs into
// a dated BENCH_<date>.json at the repo root (the perf trajectory record).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "core/database.h"
#include "obs/histogram.h"

namespace mvstore {
namespace bench {

/// Per-worker counters, aggregated after the run.
struct WorkerCounters {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// Second transaction class (read-only txns in mixed workloads).
  uint64_t committed_class2 = 0;
};

struct RunResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t committed_class2 = 0;
  double tps() const { return committed / seconds; }
  double tps_class2() const { return committed_class2 / seconds; }
  double abort_rate() const {
    uint64_t total = committed + aborted;
    return total == 0 ? 0.0 : static_cast<double>(aborted) / total;
  }
};

/// Run `worker(tid, stop, counters)` on `threads` threads for `seconds`.
/// The worker loops until `stop` becomes true.
template <typename WorkerFn>
RunResult RunFixedDuration(uint32_t threads, double seconds,
                           WorkerFn&& worker) {
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<WorkerCounters> counters(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) CpuRelax();
      worker(t, stop, counters[t]);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Timer timer;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(seconds * 1e6)));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  for (const auto& c : counters) {
    result.committed += c.committed;
    result.aborted += c.aborted;
    result.committed_class2 += c.committed_class2;
  }
  return result;
}

/// Bench slug for result rows: the binary's basename (e.g.
/// "fig5_scalability_high").
inline std::string BenchSlug(const char* argv0) {
  std::string s = argv0;
  size_t slash = s.find_last_of('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

/// Minimal flag parser: --key value. A bench names every flag it reads in
/// `accepted`; any other --key exits 2 naming it, and --help lists the
/// accepted flags and exits 0 -- both before the bench does any work.
class Flags {
 public:
  Flags(int argc, char** argv,
        std::initializer_list<const char*> accepted = {}) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key = arg.substr(2);
      if (key == "help") {
        std::printf("usage: %s [--flag value]...\naccepted flags:",
                    BenchSlug(argv[0]).c_str());
        for (const char* name : accepted) std::printf(" --%s", name);
        std::printf("\n");
        std::exit(0);
      }
      if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
        std::fprintf(stderr, "%s: unknown flag --%s (see --help)\n",
                     BenchSlug(argv[0]).c_str(), key.c_str());
        std::exit(2);
      }
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_.emplace_back(key, argv[++i]);
      } else {
        values_.emplace_back(key, "1");  // boolean flag
      }
    }
  }

  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return std::stoull(v);
    }
    return fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return std::stod(v);
    }
    return fallback;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return v;
    }
    return fallback;
  }

  bool Has(const std::string& key) const {
    for (const auto& [k, v] : values_) {
      if (k == key) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// Schemes in the paper's presentation order.
inline std::vector<Scheme> SchemesToRun(const Flags& flags) {
  std::string only = flags.GetString("scheme", "");
  std::vector<Scheme> all = {Scheme::kSingleVersion,
                             Scheme::kMultiVersionLocking,
                             Scheme::kMultiVersionOptimistic};
  if (only.empty()) return all;
  for (Scheme s : all) {
    if (only == SchemeName(s)) return {s};
  }
  std::fprintf(stderr, "unknown --scheme '%s'; valid: 1V, MV/L, MV/O\n",
               only.c_str());
  std::exit(2);
}

inline uint32_t DefaultMaxThreads() {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 4;
  // The paper caps the multiprogramming level at the machine's 24 hardware
  // threads. We cap at ours, but never below 8: the contention phenomena
  // under study (lock waits, dependency stalls, reader/writer interference)
  // require real multiprogramming even when cores are scarce; absolute
  // scaling numbers on an oversubscribed box are then meaningless, but the
  // relative shapes remain.
  uint32_t cap = hw > 24 ? 24 : hw;
  return cap < 8 ? 8 : cap;
}

/// Thread counts for scalability sweeps: 1, 2, 4, ... up to max.
inline std::vector<uint32_t> ThreadSweep(uint32_t max_threads) {
  std::vector<uint32_t> sweep;
  for (uint32_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

inline DatabaseOptions MakeOptions(Scheme scheme) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.log_mode = LogMode::kAsync;  // paper: asynchronous group commit
  // A real group window. At 0 every commit buys the flusher a wakeup and
  // the box a context switch -- per-commit flushing, not group commit; a
  // window two orders of magnitude above the per-record cost batches
  // hundreds of commits per flush and roughly doubles single-thread MV
  // throughput on a small box.
  opts.group_commit_us = 100;
  return opts;
}

/// MakeOptions honoring the common command-line axis `--group`.
inline DatabaseOptions MakeOptions(Scheme scheme, const Flags& flags) {
  DatabaseOptions opts = MakeOptions(scheme);
  opts.group_commit_us =
      static_cast<uint32_t>(flags.GetUint("group", opts.group_commit_us));
  return opts;
}

/// Per-point latency quantiles from the engine's striped histograms:
/// snapshot one histogram before the measured window, diff after, report
/// the window's p50/p99 in microseconds. Costs two cold-path merges per
/// point — nothing on the hot path, so probing does not perturb tps.
class LatencyProbe {
 public:
  explicit LatencyProbe(Database& db, obs::Hist hist = obs::Hist::kCommitTotal)
      : db_(&db), hist_(hist), delta_(db.hists().Snapshot(hist)) {}

  /// Close the window: from here on the quantiles cover exactly the
  /// records made since construction.
  void Finish() {
    obs::HistogramData now = db_->hists().Snapshot(hist_);
    now.Subtract(delta_);
    delta_ = now;
  }

  double p50_us() const {
    return obs::TicksToMicros(delta_.ValueAtQuantile(0.5));
  }
  double p99_us() const {
    return obs::TicksToMicros(delta_.ValueAtQuantile(0.99));
  }

 private:
  Database* db_;
  obs::Hist hist_;
  obs::HistogramData delta_;
};

/// Collects benchmark result rows and writes them as a JSON array:
///   [{"bench": "...", "scheme": "...", "threads": N,
///     "tps": T, "aborts": A, "p50_us": ..., "p99_us": ...}, ...]
/// Enabled by `--json PATH`; a default-constructed reporter is a no-op, so
/// benches can call AddRow unconditionally. The latency fields come from a
/// LatencyProbe when the bench wires one up, and are 0.0 otherwise — the
/// keys are always present so downstream tooling sees one schema.
class JsonReporter {
 public:
  JsonReporter() = default;
  JsonReporter(std::string path, std::string bench)
      : path_(std::move(path)), bench_(std::move(bench)) {}
  JsonReporter(const Flags& flags, std::string bench)
      : JsonReporter(flags.GetString("json", ""), std::move(bench)) {}

  ~JsonReporter() { Write(); }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  bool enabled() const { return !path_.empty(); }

  void AddRow(const std::string& scheme, uint32_t threads, double tps,
              uint64_t aborts, double p50_us = 0.0, double p99_us = 0.0) {
    if (!enabled()) return;
    char row[320];
    std::snprintf(row, sizeof(row),
                  "{\"bench\": \"%s\", \"scheme\": \"%s\", \"threads\": %u, "
                  "\"tps\": %.1f, \"aborts\": %llu, "
                  "\"p50_us\": %.1f, \"p99_us\": %.1f}",
                  bench_.c_str(), scheme.c_str(), threads, tps,
                  static_cast<unsigned long long>(aborts), p50_us, p99_us);
    rows_.push_back(row);
  }

  void AddRow(const std::string& scheme, uint32_t threads, double tps,
              uint64_t aborts, const LatencyProbe& probe) {
    AddRow(scheme, threads, tps, aborts, probe.p50_us(), probe.p99_us());
  }

  /// Write the file now (also runs at destruction; idempotent).
  void Write() {
    if (!enabled() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    written_ = true;
  }

 private:
  std::string path_;
  std::string bench_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace mvstore
