// Reference for ColumnarSeries::last_at_or_before as it was before the
// newest-first scan: sealed blocks oldest first, each decoded in full,
// then the active block, with later-appended samples winning timestamp
// ties (>=). Works from the series' append log, from which the block
// layout follows: a block seals every `block_samples` appends and the
// oldest `evicted_blocks` blocks are gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace vdap::oracle {

using TimedValue = std::pair<sim::SimTime, double>;

inline std::optional<TimedValue> last_at_or_before(
    const std::vector<TimedValue>& appended, std::size_t block_samples,
    std::size_t evicted_blocks, sim::SimTime t) {
  std::optional<TimedValue> best;
  auto consider = [&best, t](const TimedValue& s) {
    if (s.first > t) return;
    if (!best.has_value() || s.first >= best->first) best = s;
  };
  const std::size_t sealed = appended.size() / block_samples;
  for (std::size_t b = evicted_blocks; b < sealed; ++b) {
    const auto first = appended.begin() + static_cast<std::ptrdiff_t>(b * block_samples);
    const auto last = first + static_cast<std::ptrdiff_t>(block_samples);
    const auto [lo, hi] = std::minmax_element(
        first, last, [](const TimedValue& a, const TimedValue& b) {
          return a.first < b.first;
        });
    if (lo->first > t) continue;
    // Blocks strictly older than the current best cannot improve it;
    // equal-time blocks must still be scanned for the tie rule.
    if (best.has_value() && hi->first < best->first) continue;
    std::for_each(first, last, consider);
  }
  std::for_each(appended.begin() + static_cast<std::ptrdiff_t>(sealed * block_samples),
                appended.end(), consider);
  return best;
}

}  // namespace vdap::oracle
