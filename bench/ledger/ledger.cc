// The ledger binary: one workload, all three schemes, one process.
//
//   ledger --workload W [--seed S] [--window S] [--trace] [--out DIR]
//          [--small]
//
// It sets up one system under test per scheme (1V, MV/L, MV/O; timed: that
// is set-up), then measures them in kRounds interleaved rounds, rotating
// the scheme order each round, --window seconds per scheme in total. Each
// round is a closed loop with no think time. Latency is client-observed:
// one sample per client operation, from its first request to its final
// answer, aborted attempts and their retries included. A scheme's
// end-to-end numbers are the medians over its rounds, so a burst of
// neighbour noise moves one round, not the result.
//
// With --trace each scheme then runs one more round, traced: bench code
// times every call it makes into the program, and the engine's own counters
// and histograms are diffed over that round. Nothing inside src/ is
// instrumented for the ledger.
//
// The workloads are the ledger's own (the R/W transaction here, TATP in
// tatp.cc), so that no change to the library's generators moves them.
//
// Every run checks the program's outputs (value-sum conservation, TATP
// consistency, durable reopen). stdout carries exactly one JSON document;
// run.py turns it into the report. bench/ledger/README.md has the workload
// rationale and the metric catalog.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/tcp_transport.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/timing.h"
#include "core/database.h"
#include "core/recovery.h"
#include "log/logger.h"
#include "obs/histogram.h"
#include "server/loopback.h"
#include "server/mv_server.h"
#include "tatp.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace mvstore {
namespace ledger {
namespace {

// --- configuration ---------------------------------------------------------

constexpr Scheme kSchemes[] = {Scheme::kSingleVersion,
                               Scheme::kMultiVersionLocking,
                               Scheme::kMultiVersionOptimistic};

const char* Suffix(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSingleVersion:
      return "1v";
    case Scheme::kMultiVersionLocking:
      return "mvl";
    case Scheme::kMultiVersionOptimistic:
      return "mvo";
  }
  return "unknown";
}

// The paper's homogeneous update transaction (Section 5.1): R=10, W=2.
constexpr uint32_t kReads = 10;
constexpr uint32_t kWrites = 2;
// Client threads per workload. The box has 4 cores; CPU-bound workloads
// leave one to the engine's own threads (log flusher, GC, deadlock
// detector), so that their scheduling does not decide the result.
constexpr uint32_t kTatpConnections = 2;  // + kTatpServerWorkers
constexpr uint32_t kTatpServerWorkers = 2;
constexpr uint32_t kTatpDepth = 8;        // calls pipelined per batch
constexpr uint32_t kHotspotThreads = 3;
constexpr uint32_t kLongReaderUpdaters = 2;  // + 1 long reader
constexpr uint32_t kDurableThreads = 4;      // mostly parked on fsync
// Rows per load transaction: a per-row kSync load would take minutes.
constexpr uint64_t kLoadBatch = 1000;
constexpr uint32_t kRounds = 5;
// Warm-up before a scheme's first round, and before every later one: fresh
// client threads refill their per-thread caches.
constexpr double kWarmupSeconds = 1.0;
constexpr double kRewarmSeconds = 0.2;
// Each scheme's set-up is built at least kMinSetups times, and further
// while its builds have taken less than kSetupBudgetSeconds, up to
// kMaxSetups: millisecond set-ups are mostly page faults, and one build
// reads anywhere within 2x of the next.
constexpr uint32_t kMinSetups = 3;
constexpr uint32_t kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 0.25;
// Spans written to the trace file per workload x scheme (all spans feed
// the aggregates).
constexpr uint64_t kTraceTxns = 20000;

struct Sizes {
  uint64_t subscribers;   // tatp-tcp
  uint64_t hot_rows;      // hotspot-update
  uint64_t reader_rows;   // long-readers
  uint64_t durable_rows;  // durable-update
};
constexpr Sizes kFullSizes{100000, 1000, 100000, 1000000};
constexpr Sizes kSmallSizes{2000, 1000, 10000, 10000};

enum class Workload { kTatpTcp, kHotspot, kLongReaders, kDurable };

struct Options {
  std::string workload_name;
  Workload workload = Workload::kHotspot;
  uint64_t seed = 1;
  double window_s = 5.0;  // measured seconds per scheme, over all rounds
  bool trace = false;
  bool small = false;  // smoke test: tiny tables, one round
  std::string out = ".";

  Sizes sizes() const { return small ? kSmallSizes : kFullSizes; }
  uint32_t rounds() const { return small ? 1 : kRounds; }
  double round_s() const { return window_s / rounds(); }
  double warmup_s() const { return std::min(kWarmupSeconds, window_s); }
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      o->trace = true;
    } else if (arg == "--small") {
      o->small = true;
    } else if (arg == "--workload" && has_value) {
      o->workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--window" && has_value) {
      o->window_s = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      o->out = argv[++i];
    } else {
      std::fprintf(stderr, "ledger: unknown or incomplete option '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  const std::pair<const char*, Workload> kNames[] = {
      {"tatp-tcp", Workload::kTatpTcp},
      {"hotspot-update", Workload::kHotspot},
      {"long-readers", Workload::kLongReaders},
      {"durable-update", Workload::kDurable}};
  bool known = false;
  for (const auto& [name, w] : kNames) {
    if (o->workload_name == name) {
      o->workload = w;
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                 o->workload_name.c_str());
  }
  return known && o->window_s > 0;
}

/// Per-thread random stream: a function of the run seed and the thread
/// only, so every scheme sees the same request streams.
uint64_t StreamSeed(uint64_t seed, uint32_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + 0x5EED0000ull + stream;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(s * 1e6)));
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double TicksUs(uint64_t ticks) { return obs::TicksToMicros(ticks); }

// --- samples and quantiles -------------------------------------------------

/// Append-only sample store in fixed chunks: no reallocation copies (and
/// so no multi-millisecond stalls) while a window is being measured.
class Samples {
 public:
  void Add(uint64_t v) {
    if (used_ == kChunk) {
      chunks_.push_back(std::make_unique<uint64_t[]>(kChunk));
      used_ = 0;
    }
    chunks_.back()[used_++] = v;
  }
  void AppendTo(std::vector<uint64_t>* out) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const size_t n = c + 1 == chunks_.size() ? used_ : kChunk;
      out->insert(out->end(), chunks_[c].get(), chunks_[c].get() + n);
    }
  }

 private:
  static constexpr size_t kChunk = 1 << 15;
  std::vector<std::unique_ptr<uint64_t[]>> chunks_;
  size_t used_ = kChunk;
};

/// Exact quantile over every sample, interpolating between the two
/// neighbouring order statistics. Reorders `v`.
double Quantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b =
      static_cast<double>(*std::min_element(v.begin() + lo + 1, v.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- spans -----------------------------------------------------------------

/// Span kinds and the span each one nests in. In-process: op > txn (one
/// attempt) > begin/read/update/commit. Over the wire: op (one pipelined
/// batch, retries included) > queue (client serialization) / flush (send,
/// wait, parse) > call (the server-side procedure, timed inside it).
enum Kind : uint8_t {
  kOp = 0,
  kTxn,
  kBegin,
  kRead,
  kUpdate,
  kCommit,
  kQueue,
  kFlush,
  kCall,
  kNumKinds,
};
constexpr const char* kKindName[kNumKinds] = {
    "op", "txn", "begin", "read", "update", "commit", "queue", "flush", "call"};
constexpr const char* kKindParent[kNumKinds] = {
    "", "op", "txn", "txn", "txn", "txn", "op", "op", "flush"};

struct SpanRecord {
  uint64_t start;
  uint64_t end;
  uint64_t op;
  Kind kind;
};

/// Per-thread span recorder. Spans of one client operation stay pending
/// until the operation ends: only operations that completed inside the
/// measured window reach the aggregates, and only the first `op_limit` of
/// them are kept as records for the trace file (buffer reserved up front).
/// Span times are obs::NowTicks() ticks: the clock the engine's own
/// histograms use, at about half the cost of a steady_clock read, which
/// keeps the tracer's share of each span small.
class Tracer {
 public:
  void Configure(uint64_t op_limit, uint64_t spans_per_op) {
    op_limit_ = op_limit;
    records_.reserve(op_limit * spans_per_op);
  }

  void BeginOp(uint64_t op_id) {
    op_id_ = op_id;
    keep_records_ = ops_recorded_ < op_limit_;
    mark_ = records_.size();
    pending_ = {};
    pending_txns_.clear();
  }

  void Span(Kind kind, uint64_t start, uint64_t end) {
    pending_[kind] += end - start;
    if (kind == kTxn || kind == kCall) pending_txns_.push_back(end - start);
    if (keep_records_) records_.push_back({start, end, op_id_, kind});
  }

  /// Close the operation; `counted` false drops everything it recorded.
  void EndOp(bool counted, uint64_t start, uint64_t end) {
    if (!counted) {
      records_.resize(mark_);
      return;
    }
    Span(kOp, start, end);
    for (uint32_t k = 0; k < kNumKinds; ++k) {
      sum_ticks[k] += pending_[k];
    }
    for (uint64_t ticks : pending_txns_) txn_ticks.Add(ticks);
    if (keep_records_) ++ops_recorded_;
  }

  const std::vector<SpanRecord>& records() const { return records_; }

  std::array<uint64_t, kNumKinds> sum_ticks{};
  /// One sample per transaction attempt (txn spans, or server call spans).
  Samples txn_ticks;

 private:
  uint64_t op_limit_ = 0;
  uint64_t ops_recorded_ = 0;
  uint64_t op_id_ = 0;
  bool keep_records_ = false;
  size_t mark_ = 0;
  std::array<uint64_t, kNumKinds> pending_{};
  std::vector<uint64_t> pending_txns_;
  std::vector<SpanRecord> records_;
};

/// Runs `call`; given a tracer, also records it as a span of `kind`.
template <typename F>
auto Timed(Tracer* tr, Kind kind, F&& call) {
  if (tr == nullptr) return call();
  const uint64_t start = obs::NowTicks();
  auto result = call();
  tr->Span(kind, start, obs::NowTicks());
  return result;
}

// --- closed-loop phases ----------------------------------------------------

struct Control {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};

  bool stopped() const { return stop.load(std::memory_order_relaxed); }
  bool InWindow() const {
    return measuring.load(std::memory_order_relaxed) && !stopped();
  }
};

/// What one client thread saw. Window counts cover the operations that
/// completed inside the window, whenever they started: an operation held up
/// for longer than the window (1V behind a long reader) still counts, with
/// its whole latency.
struct ThreadState {
  uint64_t ops = 0;            // client operations completed in the window
  uint64_t units = 0;          // committed txns (tatp: calls) in the window
  uint64_t failed = 0;         // txns that failed for good, in the window
  uint64_t committed_all = 0;  // committed update txns, whole phase
  Samples latency;             // client-observed, one per operation
  // The long reader (long-readers only).
  uint64_t reader_rows = 0;
  uint64_t reader_txns = 0;
  uint64_t reader_aborts = 0;
  bool broken = false;  // the thread's connection failed (tatp-tcp)
  bool traced = false;
  Tracer tracer;

  Tracer* tracer_if_traced() { return traced ? &tracer : nullptr; }

  /// Untraced phases time operations in steady_clock ns, traced ones in
  /// ticks, so that op spans and their child spans share one clock.
  uint64_t Now() const { return traced ? obs::NowTicks() : NowNanos(); }
};

/// Counts every byte the log flusher hands to the sink.
class ByteCounter : public CommitObserver {
 public:
  void OnFlushedBatch(const uint8_t*, size_t size) override {
    bytes_.fetch_add(size, std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bytes_{0};
};

/// The engine's exposed instrumentation at one instant.
struct EngineSnapshot {
  std::map<std::string, uint64_t> counters;
  std::array<obs::HistogramData, static_cast<size_t>(obs::Hist::kNumHists)>
      hists;
  uint64_t log_bytes = 0;

  static EngineSnapshot Take(Database& db, const ByteCounter& bytes) {
    EngineSnapshot s;
    for (const auto& [name, value] : db.CounterSnapshot()) {
      s.counters[name] = value;
    }
    for (size_t h = 0; h < s.hists.size(); ++h) {
      s.hists[h] = db.hists().Snapshot(static_cast<obs::Hist>(h));
    }
    s.log_bytes = bytes.bytes();
    return s;
  }
};

struct Phase {
  std::vector<std::unique_ptr<ThreadState>> threads;
  double seconds = 0;
  EngineSnapshot before;
  EngineSnapshot after;

  uint64_t Sum(uint64_t ThreadState::*field) const {
    uint64_t total = 0;
    for (const auto& t : threads) total += (*t).*field;
    return total;
  }
  uint64_t SpanSum(Kind k) const {
    uint64_t total = 0;
    for (const auto& t : threads) total += t->tracer.sum_ticks[k];
    return total;
  }
  /// Traced phases: time in spans of kind `k` per client operation, in µs.
  double UsPerOp(Kind k) const {
    return Ratio(TicksUs(SpanSum(k)),
                 static_cast<double>(Sum(&ThreadState::ops)));
  }
  uint64_t Counter(const char* name) const {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    if (a == after.counters.end() || b == before.counters.end()) return 0;
    return a->second - std::min(a->second, b->second);
  }
  obs::HistogramData Hist(obs::Hist h) const {
    obs::HistogramData d = after.hists[static_cast<size_t>(h)];
    d.Subtract(before.hists[static_cast<size_t>(h)]);
    return d;
  }
  double tps() const {
    return static_cast<double>(Sum(&ThreadState::units)) / seconds;
  }
  std::vector<uint64_t> Latencies() const {
    std::vector<uint64_t> lat;
    for (const auto& t : threads) t->latency.AppendTo(&lat);
    return lat;
  }
};

/// How a workload's operations map onto spans, for sizing trace buffers.
struct TraceShape {
  uint64_t txns_per_op;
  uint64_t spans_per_op;
};

// --- report ----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;  // declared in BENCHMARK.json
  std::vector<Metric> detail;   // breakdown rows printed alongside
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  void Expect(const std::string& name, bool ok, const std::string& what) {
    checks.push_back({name, ok, what});
    if (!ok) {
      std::fprintf(stderr, "ledger: CHECK FAILED %s: %s\n", name.c_str(),
                   what.c_str());
    }
  }
  /// Every transaction a phase attempted and saw fail for good.
  void CountOutcomes(const Phase& p) {
    attempted += p.Sum(&ThreadState::units) + p.Sum(&ThreadState::failed);
    failed += p.Sum(&ThreadState::failed);
  }
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintReport(const Options& o, const Report& r) {
  auto metric_map = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      s += (i ? ", " : "") + JsonString(ms[i].name) +
           ": {\"value\": " + JsonNumber(ms[i].value) +
           ", \"unit\": " + JsonString(ms[i].unit) + "}";
    }
    return s + "}";
  };
  std::string checks = "[";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    checks += (i ? ", " : "") + std::string("{\"name\": ") +
              JsonString(r.checks[i].name) +
              ", \"ok\": " + (r.checks[i].ok ? "true" : "false") +
              ", \"detail\": " + JsonString(r.checks[i].detail) + "}";
  }
  checks += "]";
  const Sizes sz = o.sizes();
  std::printf(
      "{\"workload\": %s, \"trace\": %s, \"attempted\": %" PRIu64
      ", \"failed\": %" PRIu64
      ",\n \"provenance\": {\"nproc\": %u, \"cpu_model\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"failpoints\": %s, "
      "\"seed\": %" PRIu64 ", \"window_s\": %s, \"rounds\": %u, "
      "\"warmup_s\": %s, \"sizes\": {\"subscribers\": %" PRIu64
      ", \"hot_rows\": %" PRIu64 ", \"reader_rows\": %" PRIu64
      ", \"durable_rows\": %" PRIu64 "}},\n"
      " \"checks\": %s,\n \"metrics\": %s,\n \"detail\": %s}\n",
      JsonString(o.workload_name).c_str(), o.trace ? "true" : "false",
      r.attempted, r.failed, std::thread::hardware_concurrency(),
      JsonString(CpuModel()).c_str(), JsonString(CompilerName()).c_str(),
      JsonString(LEDGER_BUILD_TYPE).c_str(),
      failpoint::CompiledIn() ? "true" : "false", o.seed,
      JsonNumber(o.window_s).c_str(), o.rounds(),
      JsonNumber(o.warmup_s()).c_str(), sz.subscribers, sz.hot_rows,
      sz.reader_rows, sz.durable_rows, checks.c_str(),
      metric_map(r.metrics).c_str(), metric_map(r.detail).c_str());
}

// --- the system under test, one per scheme ---------------------------------

/// Per-layer inputs only some workloads have; zero elsewhere.
struct LayerExtras {
  double untraced_tps = 0;
  double reader_rows_per_s = 0;
  double reader_txns_per_s = 0;
  double reader_abort_ratio = 0;
  double session_share = 0;
  double socket_share = 0;
  double unavailable_per_kcall = 0;
  double recovery_records_per_s = 0;
};

/// One scheme's system under test: set up once, measured over several
/// rounds, checked at the end.
class Rig {
 public:
  explicit Rig(Scheme scheme) : sfx(Suffix(scheme)) {}
  virtual ~Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Output checks on the freshly set-up system; false stops the run.
  virtual bool CheckSetup(Report* r) = 0;
  virtual Database& db() = 0;
  virtual uint32_t threads() const = 0;
  virtual TraceShape shape() const = 0;
  /// One client thread's closed loop, until ctl says stop.
  virtual void Work(uint32_t tid, Control& ctl, ThreadState& st) = 0;
  /// After the last phase: output checks, and (given the traced phase) the
  /// workload's own per-layer inputs. May run further phases.
  virtual void Finish(const Options& o, const Phase* traced, LayerExtras* x,
                      Report* r) = 0;

  const std::string sfx;
  /// Registered as the database logger's commit observer by the subclass.
  ByteCounter bytes;
  bool warmed = false;
};

/// Run one phase of `rig`: start its client threads, warm up, measure
/// `window_s`, stop, join. Engine snapshots bracket the window.
void RunPhase(Rig& rig, const Options& o, double window_s, bool traced,
              Phase* phase) {
  const uint32_t nthreads = rig.threads();
  const TraceShape shape = rig.shape();
  phase->threads.clear();
  for (uint32_t t = 0; t < nthreads; ++t) {
    auto st = std::make_unique<ThreadState>();
    st->traced = traced;
    if (traced) {
      st->tracer.Configure(kTraceTxns / shape.txns_per_op / nthreads,
                           shape.spans_per_op);
    }
    phase->threads.push_back(std::move(st));
  }
  Control ctl;
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (uint32_t t = 0; t < nthreads; ++t) {
    pool.emplace_back([&, t] { rig.Work(t, ctl, *phase->threads[t]); });
  }
  SleepSeconds(rig.warmed ? std::min(kRewarmSeconds, o.warmup_s())
                          : o.warmup_s());
  rig.warmed = true;
  phase->before = EngineSnapshot::Take(rig.db(), rig.bytes);
  const uint64_t start = NowNanos();
  ctl.measuring.store(true, std::memory_order_release);
  SleepSeconds(window_s);
  ctl.stop.store(true, std::memory_order_release);
  const uint64_t end = NowNanos();
  phase->after = EngineSnapshot::Take(rig.db(), rig.bytes);
  for (auto& th : pool) th.join();
  phase->seconds = static_cast<double>(end - start) * 1e-9;
}

// --- metrics from phases ---------------------------------------------------

/// tps / p50_us / p99_us: medians over the scheme's untraced rounds. Also
/// records the median tps the traced round is compared with.
void AddEndToEnd(const std::string& sfx, const std::vector<Phase>& rounds,
                 LayerExtras* x, Report* r) {
  std::vector<double> tps, p50, p99;
  uint64_t samples = 0;
  for (const Phase& p : rounds) {
    std::vector<uint64_t> lat = p.Latencies();
    samples += lat.size();
    tps.push_back(p.tps());
    p50.push_back(Quantile(lat, 0.50) / 1e3);
    p99.push_back(Quantile(lat, 0.99) / 1e3);
  }
  r->Add("tps." + sfx, Median(tps), "txn/s");
  r->Add("p50_us." + sfx, Median(p50), "us");
  r->Add("p99_us." + sfx, Median(p99), "us");
  r->Detail("samples." + sfx, static_cast<double>(samples), "count");
  r->Expect("samples." + sfx,
            samples > 0 && *std::min_element(tps.begin(), tps.end()) > 0,
            "every round completed operations");
  x->untraced_tps = Median(tps);
}

double HistMeanUs(const obs::HistogramData& h) {
  return h.count == 0 ? 0.0 : TicksUs(h.sum) / static_cast<double>(h.count);
}

/// Per-layer metrics from the traced round. Engine-side numbers come from
/// counter and histogram deltas; the blocking-path split from bench spans.
void AddPerLayer(const std::string& sfx, const Phase& p, bool wire,
                 const LayerExtras& x, Report* r) {
  const std::string s = "." + sfx;
  // Per client operation: its mean span, the time inside calls into the
  // engine, and inside any call into the program (over the wire, the
  // client library).
  const double op_us = p.UsPerOp(kOp);
  const double engine_us =
      wire ? p.UsPerOp(kCall)
           : p.UsPerOp(kBegin) + p.UsPerOp(kRead) + p.UsPerOp(kUpdate) +
                 p.UsPerOp(kCommit);
  const double program_us =
      wire ? p.UsPerOp(kQueue) + p.UsPerOp(kFlush) : engine_us;

  std::vector<uint64_t> lat = p.Latencies();
  std::vector<uint64_t> txn;
  for (const auto& t : p.threads) t->tracer.txn_ticks.AppendTo(&txn);
  const double us_per_tick = TicksUs(1'000'000) / 1e6;
  r->Add("client.op_us.mean" + s, op_us, "us");
  r->Add("client.op_us.p50" + s, Quantile(lat, 0.50) * us_per_tick, "us");
  r->Add("client.op_us.p99" + s, Quantile(lat, 0.99) * us_per_tick, "us");
  r->Add("client.self_us.mean" + s, op_us - engine_us, "us");
  r->Add("core.op_us.mean" + s, engine_us, "us");
  r->Add("core.txn_us.p50" + s, Quantile(txn, 0.50) * us_per_tick, "us");
  r->Add("core.txn_us.p99" + s, Quantile(txn, 0.99) * us_per_tick, "us");

  const obs::HistogramData commit = p.Hist(obs::Hist::kCommitTotal);
  r->Add("core.read_ns.mean" + s,
         HistMeanUs(p.Hist(obs::Hist::kReadLatency)) * 1e3, "ns");
  r->Add("core.commit_us.mean" + s, HistMeanUs(commit), "us");
  r->Add("log.append_us.mean" + s,
         HistMeanUs(p.Hist(obs::Hist::kCommitLogAppend)), "us");
  r->Add("txn.lifetime_us.mean" + s,
         HistMeanUs(p.Hist(obs::Hist::kTxnLifetime)), "us");
  r->Add("txn.validate_share" + s,
         Ratio(HistMeanUs(p.Hist(obs::Hist::kCommitValidate)),
               HistMeanUs(commit)),
         "ratio");
  r->Add("log.group_wait_share" + s,
         Ratio(HistMeanUs(p.Hist(obs::Hist::kCommitGroupWait)),
               HistMeanUs(commit)),
         "ratio");

  const double committed = static_cast<double>(p.Counter("txn_committed"));
  const double attempts = committed + p.Counter("txn_aborted");
  auto per_k = [&](double n) { return Ratio(n * 1000.0, attempts); };
  r->Add("cc.commit_ratio" + s, Ratio(committed, attempts), "ratio");
  r->Add("cc.write_conflict_per_ktxn" + s,
         per_k(p.Counter("abort_write_conflict")), "1/ktxn");
  r->Add("cc.validation_abort_per_ktxn" + s,
         per_k(p.Counter("abort_validation") + p.Counter("abort_phantom")),
         "1/ktxn");
  r->Add("cc.lock_fail_abort_per_ktxn" + s,
         per_k(p.Counter("abort_lock_failed") + p.Counter("abort_deadlock")),
         "1/ktxn");
  r->Add("cc.lock_waits_per_ktxn" + s, per_k(p.Counter("lock_waits")),
         "1/ktxn");
  r->Add("cc.commit_dep_waits_per_ktxn" + s,
         per_k(p.Counter("commit_dep_waits")), "1/ktxn");
  r->Add("cc.speculative_reads_per_ktxn" + s,
         per_k(p.Counter("speculative_reads")), "1/ktxn");

  const double flushes = static_cast<double>(p.Counter("log_group_commits"));
  r->Add("log.group_size_mean" + s,
         Ratio(p.Counter("log_group_size_sum"), flushes), "records");
  r->Add("log.flushes_per_s" + s, flushes / p.seconds, "1/s");
  r->Add("log.bytes_per_txn" + s,
         Ratio(static_cast<double>(p.after.log_bytes - p.before.log_bytes),
               committed),
         "B/txn");

  const double created = static_cast<double>(p.Counter("versions_created"));
  const double collected =
      static_cast<double>(p.Counter("versions_collected"));
  r->Add("gc.collected_ratio" + s, Ratio(collected, created), "ratio");
  r->Add("gc.backlog_versions" + s, created - collected, "versions");
  r->Add("gc.busy_share" + s,
         obs::TicksToSeconds(p.Hist(obs::Hist::kGcPass).sum) / p.seconds,
         "ratio");
  r->Add("mem.versions_per_txn" + s, Ratio(created, committed), "versions");
  const double slab_hits = static_cast<double>(p.Counter("slab_magazine_hits"));
  r->Add("mem.slab_hit_ratio" + s,
         Ratio(slab_hits, slab_hits + p.Counter("slab_magazine_misses")),
         "ratio");
  const double pool_hits = static_cast<double>(p.Counter("txn_pool_hits"));
  r->Add("mem.txn_pool_hit_ratio" + s,
         Ratio(pool_hits, pool_hits + p.Counter("txn_pool_misses")), "ratio");

  r->Add("reader_rows_per_s" + s, x.reader_rows_per_s, "rows/s");
  r->Add("reader.txns_per_s" + s, x.reader_txns_per_s, "1/s");
  r->Add("reader.abort_ratio" + s, x.reader_abort_ratio, "ratio");
  r->Add("server.session_share" + s, x.session_share, "ratio");
  r->Add("server.socket_share" + s, x.socket_share, "ratio");
  r->Add("server.unavailable_per_kcall" + s, x.unavailable_per_kcall,
         "1/kcall");
  r->Add("core.recovery_records_per_s" + s, x.recovery_records_per_s,
         "records/s");
  r->Add("trace.overhead" + s, 1.0 - Ratio(p.tps(), x.untraced_tps),
         "ratio");
  // Both sides from the traced round, so tracer cost cannot inflate it.
  r->Add("trace.coverage" + s, Ratio(program_us, op_us), "ratio");

  // Breakdown rows: mean time per client operation in each span kind.
  for (uint32_t k = kTxn; k < kNumKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    if (p.SpanSum(kind) == 0) continue;
    r->Detail(std::string("span.") + kKindName[k] + "_us_per_op" + s,
              p.UsPerOp(kind), "us");
  }
  r->Detail("trace.ops" + s, static_cast<double>(p.Sum(&ThreadState::ops)),
            "count");
}

void WriteTrace(const std::string& path, const Phase& p) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
    return;
  }
  uint64_t base = UINT64_MAX;
  for (const auto& t : p.threads) {
    for (const SpanRecord& rec : t->tracer.records()) {
      base = std::min(base, rec.start);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < p.threads.size(); ++tid) {
    for (const SpanRecord& rec : p.threads[tid]->tracer.records()) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"txn\": %" PRIu64 ", \"parent\": \"%s\"}}",
                   first ? "" : ",\n", kKindName[rec.kind], tid,
                   TicksUs(rec.start - base), TicksUs(rec.end - rec.start),
                   rec.op, kKindParent[rec.kind]);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- in-process workloads: the Row24 table ---------------------------------

/// The paper's 24-byte row (Section 5.1), unique on `key`.
struct Row24 {
  uint64_t key;
  uint64_t value;
  uint64_t pad;
};
static_assert(sizeof(Row24) == 24);

uint64_t Row24Key(const void* payload) {
  return static_cast<const Row24*>(payload)->key;
}

/// One hash bucket per row: "we size hash tables appropriately so there
/// are no collisions".
TableDef RowsDef(uint64_t rows) {
  TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row24);
  def.indexes.push_back(IndexDef{&Row24Key, rows, /*unique=*/true});
  return def;
}

/// Row k holds value 10k, committed kLoadBatch rows per transaction.
void LoadRows(Database& db, TableId table, uint64_t rows) {
  for (uint64_t k = 0; k < rows;) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    for (uint64_t end = std::min(rows, k + kLoadBatch); k < end; ++k) {
      Row24 row{k, k * 10, 0};
      db.Insert(txn, table, &row);
    }
    db.Commit(txn);
  }
}

struct TableSum {
  bool ok = false;
  uint64_t rows = 0;
  uint64_t sum = 0;
};

TableSum SumValues(Database& db, TableId table) {
  TableSum t;
  Txn* txn = db.Begin(IsolationLevel::kReadCommitted, /*read_only=*/true);
  Status s = db.ScanTable(txn, table, [&](const void* p) {
    t.sum += static_cast<const Row24*>(p)->value;
    ++t.rows;
    return true;
  });
  if (s.IsAborted()) return t;
  t.ok = s.ok() && db.Commit(txn).ok();
  return t;
}

/// The paper's homogeneous update transaction (Section 5.1): kReads reads,
/// then kWrites increments of `value`, at uniform keys, Read Committed.
/// Given a tracer, every call into the engine is a span.
Status UpdateTxn(Database& db, TableId table, Random& rng, uint64_t rows,
                 Tracer* tr) {
  Txn* txn = Timed(tr, kBegin,
                   [&] { return db.Begin(IsolationLevel::kReadCommitted); });
  Row24 row;
  for (uint32_t i = 0; i < kReads; ++i) {
    const uint64_t key = rng.Uniform(rows);
    Status s =
        Timed(tr, kRead, [&] { return db.Read(txn, table, 0, key, &row); });
    if (s.IsAborted()) return s;
  }
  for (uint32_t i = 0; i < kWrites; ++i) {
    const uint64_t key = rng.Uniform(rows);
    Status s = Timed(tr, kUpdate, [&] {
      return db.Update(txn, table, 0, key,
                       [](void* p) { static_cast<Row24*>(p)->value += 1; });
    });
    if (s.IsAborted()) return s;
  }
  return Timed(tr, kCommit, [&] { return db.Commit(txn); });
}

/// One closed-loop updater: each operation is one R=10/W=2 transaction,
/// retried with the same keys until it commits.
void UpdateLoop(Database& db, TableId table, uint64_t rows, uint64_t seed,
                uint32_t tid, Control& ctl, ThreadState& st) {
  Random rng(StreamSeed(seed, tid));
  Tracer* tr = st.tracer_if_traced();
  uint64_t op_id = static_cast<uint64_t>(tid) << 40;
  while (!ctl.stopped()) {
    const uint64_t op_seed = rng.Next();
    if (st.traced) st.tracer.BeginOp(++op_id);
    const uint64_t t0 = st.Now();
    Status s;
    do {
      Random op_rng(op_seed);
      s = Timed(tr, kTxn,
                [&] { return UpdateTxn(db, table, op_rng, rows, tr); });
    } while (s.IsAborted() && !ctl.stopped());
    const uint64_t t1 = st.Now();
    if (s.ok()) ++st.committed_all;
    // An operation cut short by the stop (still aborting) is not counted.
    const bool in_window = ctl.InWindow() && !s.IsAborted();
    if (st.traced) st.tracer.EndOp(in_window, t0, t1);
    if (!in_window) continue;
    ++st.ops;
    if (s.ok()) {
      ++st.units;
      st.latency.Add(t1 - t0);
    } else {
      ++st.failed;
    }
  }
}

/// The long serializable read-only reader of Figures 8/9 (Section 5.2.2):
/// each transaction reads 10% of the table at uniform keys. Counts
/// successful reads.
void LongReaderLoop(Database& db, TableId table, uint64_t rows, uint64_t seed,
                    Control& ctl, ThreadState& st) {
  Random rng(StreamSeed(seed, 1000));
  const uint64_t touches = rows / 10;
  while (!ctl.stopped()) {
    Txn* txn = db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
    Row24 row;
    bool aborted = false;
    for (uint64_t i = 0; i < touches && !ctl.stopped(); ++i) {
      Status s = db.Read(txn, table, 0, rng.Uniform(rows), &row);
      if (s.IsAborted()) {
        aborted = true;
        break;
      }
      if (s.ok() && ctl.InWindow()) ++st.reader_rows;
    }
    if (!aborted && ctl.stopped()) {
      db.Abort(txn);
      break;
    }
    const bool ok = !aborted && db.Commit(txn).ok();
    if (ctl.InWindow()) ++(ok ? st.reader_txns : st.reader_aborts);
  }
}

/// hotspot-update, long-readers and durable-update: R=10/W=2 updaters over
/// one Row24 table, plus the long reader on long-readers.
class RowsRig : public Rig {
 public:
  RowsRig(Scheme scheme, const Options& o) : Rig(scheme), o_(o) {
    const Sizes sz = o.sizes();
    rows_ = o.workload == Workload::kHotspot      ? sz.hot_rows
            : o.workload == Workload::kDurable    ? sz.durable_rows
                                                  : sz.reader_rows;
    opts_.scheme = scheme;
    opts_.log_mode = LogMode::kAsync;  // paper: asynchronous group commit
    opts_.group_commit_us = 100;
    if (o.workload == Workload::kDurable) {
      log_dir_ = (std::filesystem::path(o.out) / ("wal_" + sfx)).string();
      std::filesystem::remove_all(log_dir_);
      std::filesystem::create_directories(log_dir_);
      opts_.log_mode = LogMode::kSync;
      opts_.log_path = log_dir_ + "/wal";
      opts_.log_segment_bytes = 64ull << 20;
      opts_.fsync_log = true;
    }
    db_ = std::make_unique<Database>(opts_);
    table_ = db_->CreateTable(RowsDef(rows_));
    LoadRows(*db_, table_, rows_);
    db_->logger().SetCommitObserver(&bytes);
  }

  ~RowsRig() override {
    db_.reset();
    if (!log_dir_.empty()) std::filesystem::remove_all(log_dir_);
  }

  bool CheckSetup(Report* r) override {
    initial_ = SumValues(*db_, table_);
    const bool ok = initial_.ok && initial_.rows == rows_ &&
                    initial_.sum == 10 * (rows_ * (rows_ - 1) / 2);
    r->Expect("load." + sfx, ok,
              "loaded " + std::to_string(initial_.rows) + " rows");
    return ok;
  }

  Database& db() override { return *db_; }

  uint32_t threads() const override {
    switch (o_.workload) {
      case Workload::kLongReaders:
        return 1 + kLongReaderUpdaters;
      case Workload::kDurable:
        return kDurableThreads;
      default:
        return kHotspotThreads;
    }
  }

  TraceShape shape() const override {
    return {1, 2 + 2 + kReads + kWrites};
  }

  void Work(uint32_t tid, Control& ctl, ThreadState& st) override {
    if (o_.workload == Workload::kLongReaders && tid == 0) {
      LongReaderLoop(*db_, table_, rows_, o_.seed, ctl, st);
    } else {
      UpdateLoop(*db_, table_, rows_, o_.seed, tid, ctl, st);
    }
    committed_.fetch_add(st.committed_all, std::memory_order_relaxed);
  }

  void Finish(const Options&, const Phase* traced, LayerExtras* x,
              Report* r) override {
    const uint64_t committed = committed_.load();
    const TableSum after = SumValues(*db_, table_);
    r->Expect("sum." + sfx,
              after.ok && after.sum - initial_.sum == 2 * committed,
              "value sum grew by " + std::to_string(after.sum - initial_.sum) +
                  ", 2 x committed updates = " +
                  std::to_string(2 * committed));
    if (traced != nullptr && o_.workload == Workload::kLongReaders) {
      const ThreadState& reader = *traced->threads[0];
      x->reader_rows_per_s = reader.reader_rows / traced->seconds;
      x->reader_txns_per_s = reader.reader_txns / traced->seconds;
      x->reader_abort_ratio = Ratio(reader.reader_aborts,
                                    reader.reader_aborts + reader.reader_txns);
    }
    if (o_.workload != Workload::kDurable) return;
    // Every commit acknowledged under kSync must survive a reopen.
    db_.reset();
    RecoveryReport report;
    Status status;
    const uint64_t t0 = NowNanos();
    auto reopened = Database::Open(
        opts_, [this](Database& d) { d.CreateTable(RowsDef(rows_)); },
        &status, &report);
    const double recovery_s = static_cast<double>(NowNanos() - t0) * 1e-9;
    const TableSum recovered =
        reopened != nullptr ? SumValues(*reopened, table_) : TableSum{};
    r->Expect("reopen." + sfx, recovered.ok && recovered.sum == after.sum,
              "reopened value sum " + std::to_string(recovered.sum) +
                  ", before close " + std::to_string(after.sum) + " (" +
                  status.ToString() + ")");
    r->Detail("core.recovery_s." + sfx, recovery_s, "s");
    x->recovery_records_per_s = report.records_replayed / recovery_s;
  }

 private:
  const Options& o_;
  uint64_t rows_ = 0;
  DatabaseOptions opts_;
  std::string log_dir_;
  std::unique_ptr<Database> db_;
  TableId table_ = 0;
  TableSum initial_;
  std::atomic<uint64_t> committed_{0};  // update commits, every phase
};

// --- tatp-tcp --------------------------------------------------------------

/// The ledger's TATP procedures. "ledger.tatp" runs one transaction of the
/// mix, all of it server-side, its parameters drawn from the argument's
/// seed; the frame is the library's TATP procedure frame, seed (8B) |
/// isolation (1B). "ledger.tatp_traced" runs the same and also returns the
/// server-side start and end of the call (obs::NowTicks) as its result: the
/// child spans of the client's batch span, with no instrumentation in src/.
void RegisterTatpProcedures(Database& db, const tatp::TatpDatabase& t) {
  for (const bool traced : {false, true}) {
    db.RegisterProcedure(
        traced ? "ledger.tatp_traced" : "ledger.tatp",
        [t, traced](Database& d, const uint8_t* arg, size_t arg_len,
                    std::vector<uint8_t>* result) {
          const uint64_t start = obs::NowTicks();
          if (arg_len < 9) return Status::InvalidArgument();
          uint64_t seed = 0;
          std::memcpy(&seed, arg, 8);
          const IsolationLevel iso =
              arg[8] <= static_cast<uint8_t>(IsolationLevel::kSerializable)
                  ? static_cast<IsolationLevel>(arg[8])
                  : IsolationLevel::kReadCommitted;
          Random rng(seed);
          Status s = tatp::RunMixedTxn(d, t, rng, iso);
          if (traced) {
            const uint64_t end = obs::NowTicks();
            result->resize(16);
            std::memcpy(result->data(), &start, 8);
            std::memcpy(result->data() + 8, &end, 8);
          }
          return s;
        });
  }
}

/// One client connection: each operation pipelines kTatpDepth calls in one
/// batch; aborted or refused calls are re-sent (same seed, so the same
/// transaction) in follow-up batches until all commit. A connection that
/// fails ends the thread: the calls it still owed count as failed, and
/// st.broken fails the run's connection check.
void TatpClientLoop(Transport& transport, uint32_t proc, uint64_t seed,
                    uint32_t tid, Control& ctl, ThreadState& st) {
  Status status;
  std::unique_ptr<Connection> conn = transport.Connect(&status);
  if (conn == nullptr) {
    ++st.failed;
    st.broken = true;
    std::fprintf(stderr, "ledger: connect failed: %s\n",
                 status.ToString().c_str());
    return;
  }
  MVClient client(std::move(conn));
  Random rng(StreamSeed(seed, tid));
  std::vector<uint8_t> arg(9);
  arg[8] = static_cast<uint8_t>(IsolationLevel::kReadCommitted);
  std::vector<uint64_t> pending;
  std::vector<uint64_t> retry;
  std::vector<WireResult> results;
  uint64_t op_id = static_cast<uint64_t>(tid) << 40;
  while (!ctl.stopped()) {
    pending.clear();
    for (uint32_t i = 0; i < kTatpDepth; ++i) pending.push_back(rng.Next());
    if (st.traced) st.tracer.BeginOp(++op_id);
    uint64_t ok_calls = 0;
    uint64_t failed_calls = 0;
    Status broke;  // why the connection failed, if it did
    const uint64_t t0 = st.Now();
    while (!pending.empty()) {
      const uint64_t q0 = st.traced ? obs::NowTicks() : 0;
      for (uint64_t call_seed : pending) {
        std::memcpy(arg.data(), &call_seed, 8);
        client.QueueCall(proc, arg.data(), arg.size());
      }
      const uint64_t q1 = st.traced ? obs::NowTicks() : 0;
      results.clear();
      const Status fs = client.FlushBatch(&results);
      if (st.traced) {
        const uint64_t q2 = obs::NowTicks();
        st.tracer.Span(kQueue, q0, q1);
        st.tracer.Span(kFlush, q1, q2);
      }
      if (!fs.ok() || results.size() != pending.size()) {
        broke = fs.ok() ? Status::Internal() : fs;
        break;
      }
      retry.clear();
      for (size_t i = 0; i < results.size(); ++i) {
        const WireResult& res = results[i];
        if (st.traced && res.payload.size() == 16) {
          uint64_t start = 0;
          uint64_t end = 0;
          std::memcpy(&start, res.payload.data(), 8);
          std::memcpy(&end, res.payload.data() + 8, 8);
          st.tracer.Span(kCall, start, end);
        }
        if (res.status.ok()) {
          ++ok_calls;
        } else if (res.status.IsAborted() || res.status.IsUnavailable()) {
          retry.push_back(pending[i]);
        } else {
          ++failed_calls;
        }
      }
      pending.swap(retry);
      if (ctl.stopped()) break;
    }
    const uint64_t t1 = st.Now();
    if (!broke.ok()) {
      // In the window or not, the calls still owed have failed.
      if (st.traced) st.tracer.EndOp(false, t0, t1);
      st.failed += failed_calls + pending.size();
      st.broken = true;
      std::fprintf(stderr, "ledger: connection broke: %s\n",
                   broke.ToString().c_str());
      return;
    }
    const bool in_window = ctl.InWindow() && pending.empty();
    if (st.traced) st.tracer.EndOp(in_window, t0, t1);
    if (in_window) {
      ++st.ops;
      st.units += ok_calls;
      st.failed += failed_calls;
      st.latency.Add(t1 - t0);
    }
  }
}

/// Mean of (op span - engine call spans) per op: the client + server self
/// time of the wire path.
double WireSelfUs(const Phase& p) {
  return p.UsPerOp(kOp) - p.UsPerOp(kCall);
}

/// TATP over TCP: the Table 4 mix as whole-transaction procedure calls,
/// served by MVServer, from pipelining client connections.
class TatpRig : public Rig {
 public:
  TatpRig(Scheme scheme, const Options& o) : Rig(scheme), o_(o) {
    DatabaseOptions opts;
    opts.scheme = scheme;
    opts.log_mode = LogMode::kAsync;
    opts.group_commit_us = 100;
    db_ = std::make_unique<Database>(opts);
    tatp_ = tatp::LoadTatp(*db_, o.sizes().subscribers, o.seed);
    RegisterTatpProcedures(*db_, tatp_);
    mixed_ = static_cast<uint32_t>(db_->FindProcedure("ledger.tatp"));
    traced_ = static_cast<uint32_t>(db_->FindProcedure("ledger.tatp_traced"));
    ServerOptions srv;
    srv.port = 0;
    srv.workers = kTatpServerWorkers;
    server_ = std::make_unique<MVServer>(*db_, srv);
    started_ = server_->Start();
    if (started_.ok()) {
      tcp_ = std::make_unique<TcpTransport>("127.0.0.1", server_->port());
    }
    db_->logger().SetCommitObserver(&bytes);
  }

  ~TatpRig() override {
    server_.reset();
    db_.reset();
  }

  bool CheckSetup(Report* r) override {
    r->Expect("server." + sfx, started_.ok(),
              "MVServer start: " + started_.ToString());
    return started_.ok();
  }

  Database& db() override { return *db_; }
  uint32_t threads() const override { return kTatpConnections; }
  TraceShape shape() const override { return {kTatpDepth, 3 + kTatpDepth}; }

  void Work(uint32_t tid, Control& ctl, ThreadState& st) override {
    Transport& transport = loopback_ != nullptr ? *loopback_ : *tcp_;
    TatpClientLoop(transport, st.traced ? traced_ : mixed_, o_.seed, tid, ctl,
                   st);
    if (st.broken) broken_.fetch_add(1, std::memory_order_relaxed);
  }

  void Finish(const Options& o, const Phase* traced, LayerExtras* x,
              Report* r) override {
    Phase loopback_phase;
    if (traced != nullptr) {
      // The traced stream once more over the in-process transport: no
      // kernel, no epoll. What TCP adds is the difference.
      LoopbackTransport loopback(server_->core());
      loopback_ = &loopback;
      RunPhase(*this, o, o.round_s(), /*traced=*/true, &loopback_phase);
      loopback_ = nullptr;
      r->CountOutcomes(loopback_phase);
    }
    ServerCore& core = server_->core();
    const uint64_t unavailable = core.requests_unavailable.load();
    const uint64_t calls = core.frames_processed.load();
    server_->Stop();
    r->Expect("connections." + sfx, broken_.load() == 0,
              std::to_string(broken_.load()) +
                  " client connections failed before the stop");
    r->Expect("frames_rejected." + sfx, core.frames_rejected.load() == 0,
              "frames_rejected = " +
                  std::to_string(core.frames_rejected.load()));
    r->Expect("tatp_consistency." + sfx, tatp::CheckConsistency(*db_, tatp_),
              "TATP consistency rule after the run");
    if (traced == nullptr) return;
    const double rtt = traced->UsPerOp(kOp);
    const double tcp_self = WireSelfUs(*traced);
    const double loop_self = WireSelfUs(loopback_phase);
    x->session_share = Ratio(loop_self, rtt);
    x->socket_share = Ratio(tcp_self - loop_self, rtt);
    x->unavailable_per_kcall = Ratio(unavailable * 1000.0, calls);
    r->Detail("server.loopback_rtt_us.mean." + sfx,
              loopback_phase.UsPerOp(kOp), "us");
    r->Detail("server.loopback_self_us.mean." + sfx, loop_self, "us");
    r->Detail("server.socket_us.mean." + sfx, tcp_self - loop_self, "us");
  }

 private:
  const Options& o_;
  std::unique_ptr<Database> db_;
  tatp::TatpDatabase tatp_{};
  uint32_t mixed_ = 0;
  uint32_t traced_ = 0;
  std::unique_ptr<MVServer> server_;
  Status started_;
  std::unique_ptr<TcpTransport> tcp_;
  Transport* loopback_ = nullptr;  // set while the loopback phase runs
  std::atomic<uint32_t> broken_{0};  // failed connections, every phase
};

}  // namespace

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) return 2;
  std::filesystem::create_directories(o.out);
  obs::NanosPerTick();  // calibrate once, outside every window

  Report r;
  std::vector<std::unique_ptr<Rig>> rigs;
  // The run's set-up time: the sum over schemes of each one's median build.
  // (A median pooled over schemes would sit between their clusters.)
  double setup_s = 0;
  for (Scheme scheme : kSchemes) {
    std::unique_ptr<Rig> rig;  // the last build is the one measured
    std::vector<double> builds;
    double spent = 0;
    while (builds.size() < kMinSetups ||
           (spent < kSetupBudgetSeconds && builds.size() < kMaxSetups)) {
      rig.reset();
      const uint64_t t0 = NowNanos();
      if (o.workload == Workload::kTatpTcp) {
        rig = std::make_unique<TatpRig>(scheme, o);
      } else {
        rig = std::make_unique<RowsRig>(scheme, o);
      }
      builds.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
      spent += builds.back();
    }
    setup_s += Median(builds);
    std::fprintf(stderr, "ledger: %s %s set up in %.4f s (median of %zu)\n",
                 o.workload_name.c_str(), Suffix(scheme), Median(builds),
                 builds.size());
    if (!rig->CheckSetup(&r)) break;
    rigs.push_back(std::move(rig));
  }

  if (rigs.size() == std::size(kSchemes)) {
    // Interleaved rounds, the scheme order rotating each round.
    std::vector<std::vector<Phase>> rounds(rigs.size());
    for (uint32_t round = 0; round < o.rounds(); ++round) {
      for (size_t i = 0; i < rigs.size(); ++i) {
        const size_t k = (i + round) % rigs.size();
        rounds[k].emplace_back();
        RunPhase(*rigs[k], o, o.round_s(), /*traced=*/false,
                 &rounds[k].back());
        r.CountOutcomes(rounds[k].back());
      }
    }
    for (size_t k = 0; k < rigs.size(); ++k) {
      Rig& rig = *rigs[k];
      LayerExtras x;
      AddEndToEnd(rig.sfx, rounds[k], &x, &r);
      Phase traced;
      if (o.trace) {
        RunPhase(rig, o, o.round_s(), /*traced=*/true, &traced);
        r.CountOutcomes(traced);
      }
      rig.Finish(o, o.trace ? &traced : nullptr, &x, &r);
      if (o.trace) {
        AddPerLayer(rig.sfx, traced, o.workload == Workload::kTatpTcp, x, &r);
        WriteTrace((std::filesystem::path(o.out) /
                    ("trace_" + o.workload_name + "_" + rig.sfx + ".json"))
                       .string(),
                   traced);
      }
    }
  }
  r.Add("setup_s", setup_s, "s");
  PrintReport(o, r);
  for (const Check& c : r.checks) {
    if (!c.ok) return 1;
  }
  return 0;
}

}  // namespace ledger
}  // namespace mvstore

int main(int argc, char** argv) { return mvstore::ledger::Main(argc, argv); }
