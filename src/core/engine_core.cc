#include "core/engine_core.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "log/log_segment.h"
#include "obs/slow_txn.h"

namespace mvstore {

namespace {

/// The one sink factory: no sink when logging is off, a byte counter for an
/// in-memory log, otherwise a segmented log on `log_path`.
LogSink* MakeLogSink(const EngineOptions& options, StatsCollector* stats) {
  if (options.log_mode == LogMode::kDisabled) return nullptr;
  if (options.log_path.empty()) return new NullLogSink();
  return new SegmentedLogSink(
      options.log_path,
      SegmentedLogSink::Options{options.log_segment_bytes, options.fsync_log},
      stats);
}

}  // namespace

EngineCore::EngineCore(Scheme scheme, const EngineOptions& options)
    : hists_(options.enable_latency_histograms),
      slow_txn_ticks_(obs::SlowTxnThresholdTicks(options.slow_txn_us)),
      scheme_(scheme) {
  catalog_.ConfigureMemory(
      Table::MemoryOptions{options.use_slab_allocator, &stats_, &epoch_});
  logger_ = std::make_unique<Logger>(
      options.log_mode, MakeLogSink(options, &stats_), options.group_commit_us,
      &stats_, &hists_);
}

EngineCore::~EngineCore() {
  // The derived engine has quiesced (no live transactions, background
  // threads stopped). Reclaim everything retired, then free the rows still
  // linked in the indexes: the live database image.
  epoch_.DrainAll();
  for (uint32_t tid = 0; tid < catalog_.num_tables(); ++tid) {
    Table& table = catalog_.table(tid);
    if (table.num_indexes() == 0) continue;
    std::vector<Version*> rows;
    table.index(0).ScanAll([&](Version* v) {
      rows.push_back(v);
      return true;
    });
    for (Version* v : rows) table.FreeUnpublishedVersion(v);
  }
}

Status EngineCore::Read(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key, void* out) {
  // The consumer captures one pointer so its closure fits std::function's
  // 16-byte inline buffer; a larger one costs a malloc/free per point read.
  struct Copy {
    void* out;
    uint32_t payload_size;
    bool found;
  } copy{out, catalog_.table(table_id).payload_size(), false};
  Status s = Scan(txn, table_id, index_id, key, nullptr,
                  [&copy](const void* payload) {
                    std::memcpy(copy.out, payload, copy.payload_size);
                    copy.found = true;
                    return false;
                  });
  if (!s.ok()) return s;
  return copy.found ? Status::OK() : Status::NotFound();
}

void EngineCore::RecordCommit(const CommitTimer& timer, TxnId txn_id,
                              uint64_t writes) {
  if (!timer.timed_) return;
  const uint64_t done = obs::NowTicks();
  const uint64_t total = done - timer.enter_;
  const uint64_t validated =
      timer.validated_ != 0 ? timer.validated_ : timer.enter_;
  const uint64_t log_span = timer.logged_ - validated;
  const uint64_t log_append =
      log_span - std::min(log_span, timer.group_wait_);
  hists_.Record(obs::Hist::kCommitTotal, total);
  if (timer.validated_ != 0) {
    hists_.Record(obs::Hist::kCommitValidate, validated - timer.enter_);
  }
  hists_.Record(obs::Hist::kCommitLogAppend, log_append);
  if (timer.appended_ && logger_->mode() == LogMode::kSync) {
    hists_.Record(obs::Hist::kCommitGroupWait, timer.group_wait_);
  }
  if (timer.start_ticks_ != 0) {
    hists_.Record(obs::Hist::kTxnLifetime, done - timer.start_ticks_);
  }
  if (slow_txn_ticks_ != 0 && total >= slow_txn_ticks_) {
    obs::CommitTrace trace;
    trace.scheme = scheme_ == Scheme::kSingleVersion ? "sv" : "mv";
    trace.txn_id = txn_id;
    trace.total_ticks = total;
    trace.validate_ticks = validated - timer.enter_;
    trace.log_append_ticks = log_append;
    trace.group_wait_ticks = timer.group_wait_;
    trace.writes = writes;
    obs::LogSlowTxn(trace, &stats_);
  }
}

}  // namespace mvstore
