#include "obs/histogram.h"

#include "common/timing.h"

namespace mvstore {
namespace obs {

double NanosPerTick() {
  // Magic-static: the first caller (always a cold path — snapshot,
  // exposition, slow-txn threshold conversion) pays a ~2ms spin measuring
  // the tick clock against steady_clock; everyone else reads the cached
  // ratio.
  static const double ratio = [] {
    uint64_t ticks0 = NowTicks();
    uint64_t nanos0 = NowNanos();
    while (NowNanos() - nanos0 < 2'000'000) {
    }
    uint64_t nanos1 = NowNanos();
    uint64_t ticks1 = NowTicks();
    if (ticks1 <= ticks0) return 1.0;  // broken tick source: assume ns
    return static_cast<double>(nanos1 - nanos0) /
           static_cast<double>(ticks1 - ticks0);
  }();
  return ratio;
}

}  // namespace obs
}  // namespace mvstore
