// Ring-snapshot counting for the tests that check what the obs rings
// recorded: how many events of one type each stamped rank holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "asyncit/obs/trace_recorder.hpp"

namespace asyncit {

/// Snapshots the recorder and counts the `type` events with sub-type
/// `sub` (-1: any) per stamped rank; index = rank. The result holds
/// `ranks` entries, so a rank that recorded nothing reads 0, and grows
/// past them when an event names a higher rank.
inline std::vector<std::uint64_t> count_per_rank(std::size_t ranks,
                                                 obs::EventType type,
                                                 int sub = -1) {
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  std::vector<std::uint64_t> counts(ranks, 0);
  for (const obs::Event& e : events) {
    if (e.type != type || (sub >= 0 && e.sub != sub)) continue;
    if (e.rank >= counts.size()) counts.resize(e.rank + 1u, 0);
    ++counts[e.rank];
  }
  return counts;
}

}  // namespace asyncit
