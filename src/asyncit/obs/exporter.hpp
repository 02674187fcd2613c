// Chrome trace-event JSON exporter (DESIGN.md §8).
//
// Renders a snapshot of recorded events as a `{"traceEvents":[...]}`
// document loadable by Perfetto / chrome://tracing:
//
//  * block updates become duration ("X") slices (ts = start, dur = the
//    recorded phase duration);
//  * frame / membership / probe / stop / redial events become instants
//    ("i") with the decoded payload in "args";
//  * queue-depth samples become counter ("C") tracks per link.
//
// pid = the rank that recorded the event, tid = a per-event-family lane.
// The document names one process per rank present, so an in-process
// multi-rank snapshot and a merged multi-process trace both show one
// process group per rank. It also carries "otherData" with the rank,
// the recorder's CLOCK_REALTIME enable anchor (`epoch_realtime_ns`) and
// drop counters — that anchor is what tools/trace_merge.py uses to
// shift per-rank monotonic timelines onto one cluster clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "asyncit/obs/events.hpp"

namespace asyncit::obs {

struct ExportMeta {
  std::uint16_t rank = 0;
  std::uint64_t epoch_realtime_ns = 0;
  /// Cumulative recorder drops at write time (asyncit-trace/1), or at
  /// the end of this window (asyncit-trace/2).
  std::uint64_t events_dropped = 0;
  std::string label;  ///< process_name metadata (e.g. "asyncit_node r2")

  /// Windowed streaming chunks (obs/streamer.hpp): when set, the
  /// document carries schema `asyncit-trace/2` with the window sequence
  /// number and the drops attributed to THIS window (the delta since the
  /// previous flush; Σ window deltas == the cumulative counter, which
  /// tools/trace_merge.py cross-checks when stitching).
  bool windowed = false;
  std::uint64_t window_seq = 0;
  std::uint64_t window_dropped = 0;
};

/// Writes `events` (any order; sorted internally by t_ns) as one trace
/// document. Returns the number of traceEvents emitted.
std::size_t write_chrome_trace(std::ostream& os, std::vector<Event> events,
                               const ExportMeta& meta);

/// Convenience: snapshot the global TraceRecorder and write to `path`.
/// Returns false when the file cannot be opened.
bool export_chrome_trace_file(const std::string& path, const ExportMeta& meta);

}  // namespace asyncit::obs
