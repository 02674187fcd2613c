#include "asyncit/trace/gantt.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/support/check.hpp"

namespace asyncit::trace {

using obs::Event;
using obs::EventType;

std::string render_gantt(std::span<const Event> events,
                         const GanttOptions& options) {
  ASYNCIT_CHECK(options.width >= 20);
  // Block updates and block-value frames, in time order.
  std::vector<Event> timeline;
  std::uint64_t t_end = 0;
  std::uint32_t ranks = 0;
  for (const Event& e : events) {
    const bool frame = e.type == EventType::kFrameSend ||
                       e.type == EventType::kFrameRecv ||
                       e.type == EventType::kFrameDrop;
    if (e.type != EventType::kBlockUpdate &&
        !(frame && e.sub == static_cast<std::uint8_t>(net::MsgKind::kValue)))
      continue;
    timeline.push_back(e);
    t_end = std::max(t_end, e.t_ns);
    ranks = std::max(ranks, e.rank + 1u);
  }
  if (t_end == 0) return "(empty trace)\n";
  std::stable_sort(
      timeline.begin(), timeline.end(),
      [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });

  const double seconds = double(t_end) * 1e-9;
  // One decimal for a run of 1-100 s, more for a shorter one.
  const int digits =
      std::max(1, 1 - static_cast<int>(std::floor(std::log10(seconds))));
  auto col = [&](double t_ns) {
    return std::min(options.width - 1,
                    static_cast<std::size_t>(std::max(0.0, t_ns) *
                                             double(options.width) /
                                             double(t_end)));
  };
  std::vector<std::string> lanes(ranks, std::string(options.width, ' '));
  for (const Event& e : timeline) {
    if (e.type != EventType::kBlockUpdate || e.sub != 0) continue;
    std::string& lane = lanes[e.rank];
    const std::size_t c0 = col(double(e.t_ns) - e.v * 1e9);
    const std::size_t c1 = std::max(col(double(e.t_ns)), c0 + 1);
    for (std::size_t c = c0; c <= c1 && c < options.width; ++c) lane[c] = '=';
    lane[c0] = '[';
    if (c1 < options.width) lane[c1] = ']';
    // stamp the label inside the rectangle if it fits
    const std::string label = std::to_string(e.b);
    if (c1 > c0 + label.size())
      lane.replace(c0 + 1 + (c1 - c0 - 1 - label.size()) / 2, label.size(),
                   label);
  }
  std::ostringstream os;
  os << "time 0" << std::string(options.width - 12, ' ') << std::fixed
     << std::setprecision(digits) << seconds << "\n";
  for (std::uint32_t p = 0; p < ranks; ++p)
    os << "P" << p << " |" << lanes[p] << "\n";

  // A row per sent or lost value: the publish it belongs to is its rank's
  // next, and it arrived at the receive on its link and tag whose send
  // instant (t - v) is nearest.
  struct Row {
    const Event* send;
    const Event* publish = nullptr;
    const Event* recv = nullptr;
  };
  std::vector<Row> rows;
  std::vector<std::vector<std::size_t>> unpublished(ranks);
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>,
           std::vector<std::size_t>>
      in_flight;  // (src, dst, tag) -> rows not yet received
  for (const Event& e : timeline) {
    if (e.type == EventType::kBlockUpdate) {
      for (const std::size_t r : unpublished[e.rank]) rows[r].publish = &e;
      unpublished[e.rank].clear();
    } else if (e.type != EventType::kFrameRecv) {
      unpublished[e.rank].push_back(rows.size());
      if (e.type == EventType::kFrameSend)
        in_flight[{e.rank, e.a, e.b}].push_back(rows.size());
      rows.push_back({&e});
    } else if (auto& sent = in_flight[{e.a, e.rank, e.b}]; !sent.empty()) {
      const auto gap = [&](std::size_t r) {
        return std::abs(double(rows[r].send->t_ns) + e.v * 1e9 -
                        double(e.t_ns));
      };
      const auto nearest = std::min_element(
          sent.begin(), sent.end(),
          [&](std::size_t x, std::size_t y) { return gap(x) < gap(y); });
      rows[*nearest].recv = &e;
      sent.erase(nearest);
    }
  }
  if (rows.empty()) return os.str();

  os << "\nmessages (-- full update, ~~ partial update/hatched, "
        "x dropped):\n"
     << std::setprecision(digits + 1);
  const std::size_t shown = options.max_messages
                                ? std::min(options.max_messages, rows.size())
                                : rows.size();
  for (std::size_t i = 0; i < shown; ++i) {
    const Row& r = rows[i];
    const bool partial = r.publish != nullptr && r.publish->sub == 1;
    const char* arrow = partial ? "~~" : "--";
    os << "  t=" << std::setw(8) << double(r.send->t_ns) * 1e-9;
    if (r.send->type == EventType::kFrameDrop)
      os << "  x DROPPED x  ";
    else if (r.recv == nullptr)
      os << "  (in flight)  ";
    else
      os << " -> t=" << std::setw(8) << double(r.recv->t_ns) * 1e-9 << "  ";
    os << "P" << r.send->rank << ' ' << arrow << 'x'
       << (r.publish ? std::to_string(r.publish->a) : "?") << '('
       << (partial ? "." : std::to_string(r.send->b)) << ')' << arrow
       << "> P" << r.send->a << "\n";
  }
  if (shown < rows.size())
    os << "  ... (" << rows.size() - shown << " more messages)\n";
  return os.str();
}

}  // namespace asyncit::trace
