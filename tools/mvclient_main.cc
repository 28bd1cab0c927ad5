// mvclient: command-line client for mvserver.
//
//   mvclient [--host H] [--port P] <command> [args]
//
// Commands:
//   ping                      round-trip liveness check
//   stats                     print server + engine counters
//   resolve NAME              print a registered procedure's id
//   call NAME [SEED] [ISO]    invoke a whole-txn procedure (e.g. tatp.mixed)
//                             with the standard seed|isolation argument
//   get TABLE INDEX KEY       read one row inside a read-only transaction,
//                             print it as hex
//   bench NAME COUNT [DEPTH]  pipelined procedure-call throughput: COUNT
//                             calls at DEPTH frames per batch
//   promote [force]           turn a follower (mvserver --follow) into a
//                             writable leader; `force` promotes even a
//                             follower that never attached to its leader
//                             (accepting whatever it replayed so far)
//   metrics                   print the Prometheus text exposition
//                             (docs/OBSERVABILITY.md has the catalog)
//   top [N [INTERVAL_MS]]     poll metrics N times (default forever) at
//                             INTERVAL_MS (default 1000), rendering commit
//                             throughput and latency quantile deltas
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/tcp_transport.h"
#include "common/timing.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mvclient [--host H] [--port P] "
               "ping|stats|metrics|top|resolve|call|get|bench|promote ...\n");
  return 1;
}

/// First non-flag argv position (flags are all --name value).
int CommandIndex(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      ++i;  // skip the flag's value
      continue;
    }
    return i;
  }
  return -1;
}

std::vector<uint8_t> ProcArg(uint64_t seed, uint8_t iso) {
  std::vector<uint8_t> arg(9);
  std::memcpy(arg.data(), &seed, 8);
  arg[8] = iso;
  return arg;
}

/// Prometheus text parsed into series-name (labels included) -> value.
std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text[pos] != '#') {
      size_t sp = text.rfind(' ', eol);
      if (sp != std::string::npos && sp > pos) {
        out[text.substr(pos, sp - pos)] =
            std::strtod(text.c_str() + sp + 1, nullptr);
      }
    }
    pos = eol + 1;
  }
  return out;
}

double MetricValue(const std::map<std::string, double>& m,
                   const std::string& name) {
  auto it = m.find(name);
  return it != m.end() ? it->second : 0.0;
}

/// Per-bucket (non-cumulative) counts of `mvstore_<hist>_seconds`, keyed by
/// the bucket's `le` upper bound. Elided (empty) bucket rows come back as
/// implicit zeros, so two samples diff cleanly even when their emitted
/// bucket sets differ.
std::map<double, double> BucketCounts(const std::map<std::string, double>& m,
                                      const std::string& hist) {
  const std::string prefix = "mvstore_" + hist + "_seconds_bucket{le=\"";
  std::map<double, double> cumulative;
  for (auto it = m.lower_bound(prefix);
       it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    cumulative[std::strtod(it->first.c_str() + prefix.size(), nullptr)] =
        it->second;
  }
  std::map<double, double> counts;
  double prev = 0.0;
  for (const auto& [le, cum] : cumulative) {
    counts[le] = cum - prev;
    prev = cum;
  }
  return counts;
}

/// Quantile (seconds) of the distribution recorded between two metrics
/// samples: diff the per-bucket counts, then walk the delta histogram.
/// Returns 0 when nothing was recorded in the window.
double DeltaQuantileSeconds(const std::map<std::string, double>& now,
                            const std::map<std::string, double>& prev,
                            const std::string& hist, double q) {
  std::map<double, double> now_counts = BucketCounts(now, hist);
  std::map<double, double> prev_counts = BucketCounts(prev, hist);
  double total = 0.0;
  for (auto& [le, count] : now_counts) {
    auto it = prev_counts.find(le);
    if (it != prev_counts.end()) count -= it->second;
    if (count < 0.0) count = 0.0;
    total += count;
  }
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double acc = 0.0;
  double last_finite = 0.0;
  for (const auto& [le, count] : now_counts) {
    acc += count;
    if (!std::isinf(le)) last_finite = le;
    if (acc >= target && count > 0.0) {
      return std::isinf(le) ? last_finite : le;
    }
  }
  return last_finite;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvstore;

  const char* host_flag = FlagValue(argc, argv, "--host");
  const char* port_flag = FlagValue(argc, argv, "--port");
  std::string host = host_flag != nullptr ? host_flag : "127.0.0.1";
  uint16_t port = static_cast<uint16_t>(
      port_flag != nullptr ? std::strtoul(port_flag, nullptr, 10) : 7711);

  int cmd_at = CommandIndex(argc, argv);
  if (cmd_at < 0) return Usage();
  std::string cmd = argv[cmd_at];
  auto arg_at = [&](int k) -> const char* {
    return cmd_at + k < argc ? argv[cmd_at + k] : nullptr;
  };

  TcpTransport transport(host, port);
  Status status;
  auto conn = transport.Connect(&status);
  if (conn == nullptr) {
    std::fprintf(stderr, "mvclient: cannot connect to %s:%u: %s\n",
                 host.c_str(), port, status.ToString().c_str());
    return 1;
  }
  MVClient client(std::move(conn));

  if (cmd == "ping") {
    Status s = client.Ping();
    std::printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }

  if (cmd == "promote") {
    const char* mode = arg_at(1);
    bool force = mode != nullptr && std::strcmp(mode, "force") == 0;
    Status s = client.Promote(force);
    std::printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }

  if (cmd == "stats" || cmd == "metrics") {
    std::string text;
    Status s = cmd == "stats" ? client.Stats(&text) : client.Metrics(&text);
    if (!s.ok()) {
      std::fprintf(stderr, "mvclient: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fputs(text.c_str(), stdout);
    return 0;
  }

  if (cmd == "top") {
    // top [N [INTERVAL_MS]]: poll kMetrics and render per-interval deltas —
    // commit/abort/read rates from counter diffs, commit latency quantiles
    // from the diffed commit_total histogram buckets.
    uint64_t rounds = arg_at(1) != nullptr
                          ? std::strtoull(arg_at(1), nullptr, 10)
                          : 0;  // 0 = run until killed
    uint32_t interval_ms = static_cast<uint32_t>(
        arg_at(2) != nullptr ? std::strtoul(arg_at(2), nullptr, 10) : 1000);
    if (interval_ms == 0) interval_ms = 1000;
    std::string text;
    Status s = client.Metrics(&text);
    if (!s.ok()) {
      std::fprintf(stderr, "mvclient: %s\n", s.ToString().c_str());
      return 1;
    }
    std::map<std::string, double> prev = ParseMetrics(text);
    for (uint64_t round = 0; rounds == 0 || round < rounds; ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      s = client.Metrics(&text);
      if (!s.ok()) {
        std::fprintf(stderr, "mvclient: %s\n", s.ToString().c_str());
        return 1;
      }
      std::map<std::string, double> now = ParseMetrics(text);
      const double secs = interval_ms / 1000.0;
      auto rate = [&](const char* name) {
        return (MetricValue(now, name) - MetricValue(prev, name)) / secs;
      };
      auto us = [&](double q) {
        return DeltaQuantileSeconds(now, prev, "commit_total", q) * 1e6;
      };
      if (round % 20 == 0) {
        std::printf("%10s %10s %10s %9s %9s %9s %9s\n", "commit/s", "abort/s",
                    "read/s", "p50_us", "p90_us", "p99_us", "repl_lag");
      }
      std::printf("%10.0f %10.0f %10.0f %9.1f %9.1f %9.1f %9.0f\n",
                  rate("mvstore_txn_committed_total"),
                  rate("mvstore_txn_aborted_total"),
                  rate("mvstore_reads_total"), us(0.5),
                  us(0.9), us(0.99),
                  MetricValue(now, "mvstore_repl_lag_timestamps"));
      std::fflush(stdout);
      prev = std::move(now);
    }
    return 0;
  }

  if (cmd == "resolve" || cmd == "call" || cmd == "bench") {
    const char* name = arg_at(1);
    if (name == nullptr) return Usage();
    uint32_t proc_id = 0;
    Status s = client.Resolve(name, &proc_id);
    if (!s.ok()) {
      std::fprintf(stderr, "mvclient: resolve '%s': %s\n", name,
                   s.ToString().c_str());
      return 1;
    }
    if (cmd == "resolve") {
      std::printf("%u\n", proc_id);
      return 0;
    }
    if (cmd == "call") {
      uint64_t seed = arg_at(2) != nullptr
                          ? std::strtoull(arg_at(2), nullptr, 10)
                          : 42;
      uint8_t iso = static_cast<uint8_t>(
          arg_at(3) != nullptr ? std::strtoul(arg_at(3), nullptr, 10) : 0);
      std::vector<uint8_t> arg = ProcArg(seed, iso);
      std::vector<uint8_t> result;
      s = client.Call(proc_id, arg.data(), arg.size(), &result);
      std::printf("%s\n", s.ToString().c_str());
      return s.ok() || s.IsAborted() ? 0 : 1;
    }
    // bench NAME COUNT [DEPTH]
    uint64_t count = arg_at(2) != nullptr
                         ? std::strtoull(arg_at(2), nullptr, 10)
                         : 10000;
    uint32_t depth = static_cast<uint32_t>(
        arg_at(3) != nullptr ? std::strtoul(arg_at(3), nullptr, 10) : 16);
    if (depth == 0) depth = 1;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    Timer timer;
    for (uint64_t done = 0; done < count;) {
      uint32_t batch = static_cast<uint32_t>(
          count - done < depth ? count - done : depth);
      for (uint32_t i = 0; i < batch; ++i) {
        std::vector<uint8_t> arg = ProcArg(done + i, 0);
        client.QueueCall(proc_id, arg.data(), arg.size());
      }
      std::vector<WireResult> results;
      if (!client.FlushBatch(&results).ok()) {
        std::fprintf(stderr, "mvclient: connection lost mid-bench\n");
        return 1;
      }
      for (const WireResult& r : results) {
        if (r.status.ok()) {
          ++committed;
        } else {
          ++aborted;
        }
      }
      done += batch;
    }
    double seconds = timer.ElapsedSeconds();
    std::printf("%llu calls in %.3fs = %.0f tps (%llu aborted/refused)\n",
                static_cast<unsigned long long>(committed + aborted), seconds,
                (committed + aborted) / seconds,
                static_cast<unsigned long long>(aborted));
    return 0;
  }

  if (cmd == "get") {
    if (arg_at(3) == nullptr) return Usage();
    TableId table = static_cast<TableId>(std::strtoul(arg_at(1), nullptr, 10));
    IndexId index = static_cast<IndexId>(std::strtoul(arg_at(2), nullptr, 10));
    uint64_t key = std::strtoull(arg_at(3), nullptr, 10);
    Status s = client.Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
    if (!s.ok()) {
      std::fprintf(stderr, "mvclient: begin: %s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<uint8_t> row;
    s = client.Get(table, index, key, &row);
    client.Commit();
    if (s.IsNotFound()) {
      std::printf("NotFound\n");
      return 0;
    }
    if (!s.ok()) {
      std::fprintf(stderr, "mvclient: get: %s\n", s.ToString().c_str());
      return 1;
    }
    for (uint8_t byte : row) std::printf("%02x", byte);
    std::printf("\n");
    return 0;
  }

  return Usage();
}
