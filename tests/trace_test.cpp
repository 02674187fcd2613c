// Tests for the trace layer: the ASCII Gantt renderer that regenerates
// Figures 1 and 2 from an obs ring snapshot, and CSV mirroring.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "asyncit/obs/events.hpp"
#include "asyncit/trace/csv.hpp"
#include "asyncit/trace/gantt.hpp"

namespace asyncit::trace {
namespace {

using obs::EventType;

obs::Event at(double t, EventType type, std::uint8_t sub, std::uint16_t rank,
              std::uint32_t a, std::uint64_t b, double v = 0.0) {
  return {static_cast<std::uint64_t>(std::llround(t * 1e9)), type, sub, rank,
          a, b, v};
}

// What sim/ records for: P0 phases [0,1] (step 1) and [1,2.5] (step 3),
// P1 phase [0,2] (step 2); P0 sends x0 (tag 1) to P1 at 1.0, arriving at
// 1.4; P1 publishes a partial of x1 at 1.5, arriving at P0 at 1.9; P1's
// full x1 (tag 2) to P0 is lost. A publish's frames precede it.
std::vector<obs::Event> two_processor_trace() {
  return {
      at(1.0, EventType::kFrameSend, 0, 0, 1, 1),
      at(1.0, EventType::kBlockUpdate, 0, 0, 0, 1, 1.0),
      at(1.4, EventType::kFrameRecv, 0, 1, 0, 1, 0.4),
      at(1.5, EventType::kFrameSend, 0, 1, 0, 0),
      at(1.5, EventType::kBlockUpdate, 1, 1, 1, 0),
      at(1.9, EventType::kFrameRecv, 0, 0, 1, 0, 0.4),
      at(2.0, EventType::kFrameDrop, 0, 1, 0, 2),
      at(2.0, EventType::kBlockUpdate, 0, 1, 1, 2, 2.0),
      at(2.5, EventType::kBlockUpdate, 0, 0, 0, 3, 1.5),
  };
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

TEST(Gantt, OneLanePerRankLabelledWithEachPhasesStep) {
  GanttOptions opt;
  opt.width = 60;
  const auto g = lines(render_gantt(two_processor_trace(), opt));
  ASSERT_GE(g.size(), 4u);
  EXPECT_EQ(g[0].substr(0, 6), "time 0");
  EXPECT_EQ(g[0].substr(g[0].size() - 3), "2.5");
  // 24 columns per second: P0 spans [0,24] and [24,59], P1 [0,48]
  const std::string eq11(11, '='), eq23(23, '=');
  EXPECT_EQ(g[1], "P0 |[" + eq11 + "1" + eq11 + "[" + std::string(16, '=') +
                      "3" + std::string(17, '=') + "]");
  EXPECT_EQ(g[2], "P1 |[" + eq23 + "2" + eq23 + "]" + std::string(11, ' '));
  EXPECT_EQ(g[3], "");  // no third lane
}

TEST(Gantt, MarksFullPartialAndDroppedMessages) {
  const auto g = lines(render_gantt(two_processor_trace(), {}));
  const std::vector<std::string> rows(g.end() - 3, g.end());
  EXPECT_EQ(rows[0], "  t=    1.00 -> t=    1.40  P0 --x0(1)--> P1");
  EXPECT_EQ(rows[1], "  t=    1.50 -> t=    1.90  P1 ~~x1(.)~~> P0");
  EXPECT_EQ(rows[2], "  t=    2.00  x DROPPED x  P1 --x1(2)--> P0");
}

TEST(Gantt, ArrivalIsTheNearestSendOnItsLink) {
  // Two values with one tag overtake each other on a non-FIFO link; a
  // third is still in flight when the trace ends.
  const std::vector<obs::Event> events = {
      at(1.0, EventType::kFrameSend, 0, 0, 1, 5),
      at(1.2, EventType::kFrameSend, 0, 0, 1, 5),
      at(1.2, EventType::kBlockUpdate, 0, 0, 0, 5, 1.2),
      at(1.3, EventType::kFrameRecv, 0, 1, 0, 5, 0.1),
      at(1.6, EventType::kFrameRecv, 0, 1, 0, 5, 0.6),
      at(1.7, EventType::kFrameSend, 0, 0, 1, 6),
  };
  const auto g = lines(render_gantt(events, {}));
  const std::vector<std::string> rows(g.end() - 3, g.end());
  EXPECT_EQ(rows[0], "  t=    1.00 -> t=    1.60  P0 --x0(5)--> P1");
  EXPECT_EQ(rows[1], "  t=    1.20 -> t=    1.30  P0 --x0(5)--> P1");
  // no publish followed it: its block is unknown
  EXPECT_EQ(rows[2], "  t=    1.70  (in flight)  P0 --x?(6)--> P1");
}

TEST(Gantt, MessageTableCanBeCapped) {
  std::vector<obs::Event> events = two_processor_trace();
  for (int i = 0; i < 100; ++i)
    events.push_back(at(0.1, EventType::kFrameSend, 0, 0, 1, 1));
  GanttOptions opt;
  opt.max_messages = 5;
  const std::string g = render_gantt(events, opt);
  EXPECT_NE(g.find("  ... (98 more messages)\n"), std::string::npos);
  // a snapshot without frame events draws lanes and no message table
  std::erase_if(events, [](const obs::Event& e) {
    return e.type != EventType::kBlockUpdate;
  });
  EXPECT_EQ(render_gantt(events, opt).find("messages"), std::string::npos);
}

TEST(Gantt, EmptyTraceHandled) {
  EXPECT_EQ(render_gantt({}, {}), "(empty trace)\n");
  // events the chart does not draw: membership, control frames
  const std::vector<obs::Event> undrawn = {
      at(1.0, EventType::kMembership, 0, 0, 1, 1),
      at(2.0, EventType::kFrameSend, 1, 0, 1, 0),  // a kStop frame
  };
  EXPECT_EQ(render_gantt(undrawn, {}), "(empty trace)\n");
}

TEST(Csv, SerializesAndEscapes) {
  TextTable t({"name", "value"});
  t.add_row({"plain", "1.5"});
  t.add_row({"with,comma", "say \"hi\""});
  const std::string csv = to_csv(t);
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, DisabledWithoutEnvVar) {
  ::unsetenv("ASYNCIT_BENCH_CSV");
  TextTable t({"a"});
  t.add_row({"1"});
  EXPECT_EQ(maybe_write_csv(t, "should_not_exist"), "");
}

}  // namespace
}  // namespace asyncit::trace
