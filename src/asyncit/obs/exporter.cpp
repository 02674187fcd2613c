#include "asyncit/obs/exporter.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "asyncit/obs/trace_recorder.hpp"

namespace asyncit::obs {

namespace {

/// Display lane (tid) per event family — one merged rank renders as a
/// process with stable, readably-named tracks.
int lane_of(EventType t) {
  switch (t) {
    case EventType::kBlockUpdate: return 0;
    case EventType::kFrameSend:
    case EventType::kFrameRecv:
    case EventType::kFrameReject:
    case EventType::kFrameDrop:
    case EventType::kInversion: return 1;
    case EventType::kQueueDepth:
    case EventType::kRedial: return 2;
    case EventType::kMembership:
    case EventType::kProbe: return 3;
    default: return 4;
  }
}

const char* lane_name(int lane) {
  switch (lane) {
    case 0: return "updates";
    case 1: return "frames";
    case 2: return "transport";
    case 3: return "membership";
    default: return "control";
  }
}

void append_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::size_t write_chrome_trace(std::ostream& os, std::vector<Event> events,
                               const ExportMeta& meta) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });

  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };

  // One named process per rank present (meta.rank's even when empty).
  std::vector<std::uint16_t> ranks{meta.rank};
  for (const Event& e : events) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const std::string label = meta.label.empty() ? "asyncit" : meta.label;
  for (const std::uint16_t rank : ranks) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rank
       << ",\"tid\":0,\"args\":{\"name\":\"";
    append_escaped(os, ranks.size() == 1 ? label
                                         : label + " r" + std::to_string(rank));
    os << "\"}}";
    for (int lane = 0; lane <= 4; ++lane) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << rank
         << ",\"tid\":" << lane << ",\"args\":{\"name\":\""
         << lane_name(lane) << "\"}}";
    }
  }

  std::size_t emitted = 0;
  for (const Event& e : events) {
    const double ts_us = double(e.t_ns) * 1e-3;
    const int lane = lane_of(e.type);
    sep();
    ++emitted;
    if (e.type == EventType::kBlockUpdate) {
      const double dur_us = std::max(0.0, e.v * 1e6);
      os << "{\"name\":\"update b" << e.a << "\",\"ph\":\"X\",\"ts\":"
         << std::max(0.0, ts_us - dur_us) << ",\"dur\":" << dur_us
         << ",\"pid\":" << e.rank << ",\"tid\":" << lane
         << ",\"args\":{\"block\":" << e.a << ",\"step\":" << e.b
         << ",\"partial\":" << unsigned(e.sub) << "}}";
    } else if (e.type == EventType::kQueueDepth) {
      os << "{\"name\":\"queue q" << unsigned(e.sub) << " peer" << e.a
         << "\",\"ph\":\"C\",\"ts\":" << ts_us << ",\"pid\":" << e.rank
         << ",\"tid\":" << lane << ",\"args\":{\"depth\":" << e.b << "}}";
    } else {
      os << "{\"name\":\"" << to_string(e.type) << "\",\"ph\":\"i\",\"s\":\"t\""
         << ",\"ts\":" << ts_us << ",\"pid\":" << e.rank << ",\"tid\":" << lane
         << ",\"args\":{\"sub\":" << unsigned(e.sub) << ",\"a\":" << e.a
         << ",\"b\":" << e.b << ",\"v\":" << e.v << "}}";
    }
  }

  os << "],\"otherData\":{\"schema\":\"asyncit-trace/"
     << (meta.windowed ? 2 : 1) << "\",\"rank\":" << meta.rank
     << ",\"epoch_realtime_ns\":" << meta.epoch_realtime_ns
     << ",\"events_dropped\":" << meta.events_dropped;
  if (meta.windowed)
    os << ",\"window_seq\":" << meta.window_seq
       << ",\"events_dropped_window\":" << meta.window_dropped;
  os << "}}";
  os << '\n';
  return emitted;
}

bool export_chrome_trace_file(const std::string& path,
                              const ExportMeta& meta) {
  std::ofstream os(path);
  if (!os) return false;
  std::vector<Event> events;
  TraceRecorder::instance().snapshot(&events);
  write_chrome_trace(os, std::move(events), meta);
  return bool(os);
}

}  // namespace asyncit::obs
