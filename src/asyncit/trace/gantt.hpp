// ASCII Gantt rendering of an obs ring snapshot (obs/events.hpp) from any
// executor — regenerates the paper's Figure 1 and Figure 2.
//
// Output shape (one lane per rank, time in seconds left to right):
//
//   P0 |[=1==][==3===][=5=]...      kBlockUpdate sub-0 spans [t - v, t],
//   P1 |[===2====][====4====]...    labelled with their b
//
//   messages:  one row per kValue kFrameSend or kFrameDrop, whose block
//              and kind come from the publish its rank records next;
//              it arrives at the kFrameRecv on its link and tag whose
//              send instant (t - v) is nearest
//     t=1.00 -> t=1.40   P0 --x0(1)--> P1      (full update, plain arrow)
//     t=2.10 -> t=2.60   P1 ~~x1(.)~~> P0      (partial update, "hatched")
#pragma once

#include <span>
#include <string>

#include "asyncit/obs/events.hpp"

namespace asyncit::trace {

struct GanttOptions {
  std::size_t width = 100;        ///< character columns for the time axis
  std::size_t max_messages = 40;  ///< message table rows (0 = all)
};

std::string render_gantt(std::span<const obs::Event> events,
                         const GanttOptions& options);

}  // namespace asyncit::trace
