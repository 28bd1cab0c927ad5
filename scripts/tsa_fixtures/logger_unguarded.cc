// Negative thread-safety fixture: MUST FAIL to compile under
//   clang++ -Wthread-safety -Werror=thread-safety-analysis
// (scripts/check_thread_safety.sh compiles it and asserts the failure).
//
// It reads an append lane's record bytes and refs without the lane's
// latch. If this file ever compiles cleanly under the analysis, the
// GUARDED_BY(latch) annotations on Logger::Lane have been deleted or
// defeated.
//
// Never add this file to the build; it exists only for -fsyntax-only.

#include <cstdint>

#include "log/logger.h"

namespace mvstore {

struct TsaNegativeProbe {
  static uint64_t UnguardedLaneRead(Logger& logger) {
    // No SpinLatchGuard on lane.latch: both reads below must be rejected.
    Logger::Lane& lane = logger.lanes_[0];
    uint64_t n = lane.bytes.size();
    n += lane.refs.size();
    return n;
  }
};

}  // namespace mvstore
