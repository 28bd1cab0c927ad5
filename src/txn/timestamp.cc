#include "txn/timestamp.h"

namespace mvstore {
namespace {

std::atomic<uint64_t> txn_id_generators{1};

}  // namespace

TxnIdGenerator::TxnIdGenerator(uint64_t start_raw)
    : counter_(start_raw),
      instance_id_(
          txn_id_generators.fetch_add(1, std::memory_order_relaxed)) {}

}  // namespace mvstore
