// Tests for the observability layer (obs/): trace-ring wraparound and
// drop accounting, concurrent-writer integrity (the tsan leg runs this
// binary), exporter well-formedness, trace_merge.py clock alignment,
// and bit-exact parity between the online admissibility auditor and the
// offline model/ auditors on the same recorded schedule.
//
// Ring-capacity discipline: a thread's ring is claimed once (at its
// first record) with the capacity configured at THAT moment, and
// released rings are reused as-is. Every enable() in this binary
// therefore uses the same kCap so each assertion about wrap/drop
// arithmetic holds regardless of test order.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asyncit/model/admissibility.hpp"
#include "asyncit/model/history.hpp"
#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/obs/auditor.hpp"
#include "asyncit/obs/exporter.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/streamer.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/obs/watchdog.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/support/rng.hpp"

namespace {

using namespace asyncit;

constexpr std::size_t kCap = 256;  // every enable() in this binary

void enable_full() {
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kFull;
  tc.ring_capacity = kCap;
  obs::TraceRecorder::instance().enable(tc);
}

bool python3_available() {
  return std::system("python3 -c 'pass' >/dev/null 2>&1") == 0;
}

// Deterministic raw clock for byte-comparable exports: every reading
// advances 1 us, so two identical record sequences stamp identical
// timestamps regardless of host scheduling (same idiom as the simnet
// virtual-time clock injection).
std::uint64_t g_fake_ns = 0;
std::uint64_t fake_clock() { return g_fake_ns += 1000; }

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(TraceRecorder, RingWrapAndDropAccounting) {
  enable_full();
  // A fresh-thread writer gets a ring of exactly kCap slots; push far
  // past capacity without a reader and the overwritten (never-read)
  // events must be accounted as drops, not silently lost.
  constexpr std::uint64_t kPushes = 1000;
  std::thread writer([] {
    for (std::uint64_t i = 0; i < kPushes; ++i)
      obs::record(obs::EventType::kMarker, 7, 0, i, double(i));
  });
  writer.join();
  // The readable window is capacity - 1: the oldest in-capacity slot is
  // never safely readable while a writer is live (it is the next slot a
  // lapping writer rewrites before publishing), so the reader excludes
  // it unconditionally — and the writer counts it as a drop.
  constexpr std::size_t kWindow = kCap - 1;
  const obs::RecorderStats stats = obs::TraceRecorder::instance().stats();
  EXPECT_EQ(stats.recorded, kPushes);
  EXPECT_EQ(stats.dropped, kPushes - kWindow);

  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), kWindow) << "snapshot = the newest window";
  EXPECT_EQ(events.size() + stats.dropped, stats.recorded)
      << "every recorded event is read or counted as dropped";
  // The survivors are the LAST kWindow events, in push order, intact.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].type, obs::EventType::kMarker);
    EXPECT_EQ(events[i].sub, 7);
    EXPECT_EQ(events[i].b, kPushes - kWindow + i);
    EXPECT_EQ(events[i].v, double(kPushes - kWindow + i));
  }

  // The snapshot consumed the cursor: a second snapshot is empty and
  // the drop counter does not move retroactively.
  std::vector<obs::Event> again;
  EXPECT_EQ(obs::TraceRecorder::instance().snapshot(&again), 0u);
  obs::TraceRecorder::instance().disable();
}

TEST(TraceRecorder, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder::instance().disable();
  const std::uint64_t before = obs::TraceRecorder::instance().stats().recorded;
  obs::record(obs::EventType::kMarker, 0, 1, 2, 3.0);
  EXPECT_FALSE(obs::tracing_on());
  EXPECT_FALSE(obs::tracing_full());
  EXPECT_EQ(obs::TraceRecorder::instance().stats().recorded, before);
}

TEST(TraceRecorder, MetricsLevelSkipsTheRings) {
  obs::TraceConfig tc;
  tc.level = obs::TraceLevel::kMetrics;
  tc.ring_capacity = kCap;
  obs::TraceRecorder::instance().enable(tc);
  EXPECT_TRUE(obs::tracing_on());
  EXPECT_FALSE(obs::tracing_full());
  obs::record(obs::EventType::kMarker, 0, 1, 2, 3.0);
  EXPECT_EQ(obs::TraceRecorder::instance().stats().recorded, 0u);
  obs::TraceRecorder::instance().disable();
}

TEST(TraceRecorder, ConcurrentWritersPreserveIntegrity) {
  enable_full();
  // 4 writers hammer their rings while a reader snapshots concurrently:
  // the tsan leg proves the relaxed-atomic slot protocol is race-free,
  // and the lap check keeps every decoded event internally consistent
  // (type valid, b monotone per writer) even mid-overwrite.
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::vector<obs::Event> seen;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire))
      obs::TraceRecorder::instance().snapshot(&seen);
    obs::TraceRecorder::instance().snapshot(&seen);
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i)
        obs::record(obs::EventType::kMarker,
                    static_cast<std::uint8_t>(w),
                    static_cast<std::uint32_t>(w), i, 0.0);
    });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const obs::RecorderStats stats = obs::TraceRecorder::instance().stats();
  EXPECT_EQ(stats.recorded, std::uint64_t(kWriters) * kPerWriter);
  // Everything decoded must be intact; per writer the surviving b
  // sequence is a strictly increasing subsequence of 0..kPerWriter-1.
  std::map<std::uint32_t, std::uint64_t> last;
  for (const obs::Event& e : seen) {
    ASSERT_EQ(e.type, obs::EventType::kMarker);
    ASSERT_LT(e.a, static_cast<std::uint32_t>(kWriters));
    ASSERT_LT(e.b, kPerWriter);
    ASSERT_EQ(e.sub, static_cast<std::uint8_t>(e.a));
    auto it = last.find(e.a);
    if (it != last.end()) EXPECT_GT(e.b, it->second);
    last[e.a] = e.b;
  }
  EXPECT_FALSE(seen.empty());
  obs::TraceRecorder::instance().disable();
}

TEST(Metrics, RegistryCountsAndSnapshotsJson) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Counter& c = reg.counter("test.frames");
  obs::Gauge& g = reg.gauge("test.depth");
  c.add(3);
  c.add(2);
  g.set(7.5);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 7.5);
  // Find-or-create returns the same instruments.
  EXPECT_EQ(&reg.counter("test.frames"), &c);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\":\"asyncit-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.frames\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.depth\":7.5"), std::string::npos);
}

TEST(Exporter, WritesWellFormedChromeTraceJson) {
  enable_full();
  obs::record(obs::EventType::kBlockUpdate, 0, 3, 17, 0.002);
  obs::record(obs::EventType::kFrameSend,
              0, 1, 17, 96.0);
  obs::record(obs::EventType::kFrameRecv, 0, 1, 17, 0.0005);
  obs::record(obs::EventType::kQueueDepth,
              static_cast<std::uint8_t>(obs::QueueKind::kTcpWriter), 1, 4,
              512.0);
  obs::record(obs::EventType::kStopDecision, 0,
              static_cast<std::uint32_t>(obs::StopReason::kOracle), 42, 1.5);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), 5u);

  obs::ExportMeta meta;
  meta.rank = 0;
  meta.epoch_realtime_ns = 1234567890;
  meta.label = "obs_test";
  std::ostringstream os;
  const std::size_t emitted = obs::write_chrome_trace(os, events, meta);
  EXPECT_GE(emitted, events.size());  // + metadata naming events
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"asyncit-trace/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"epoch_realtime_ns\":1234567890"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // the update slice
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);  // the counter
  // Structural balance outside strings is a cheap well-formedness proxy;
  // the python test below parses a full document for real.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  if (python3_available()) {
    const std::string path = ::testing::TempDir() + "obs_export.json";
    std::ofstream(path) << doc;
    EXPECT_EQ(std::system(("python3 -m json.tool " + path +
                           " >/dev/null").c_str()),
              0)
        << "exporter output is not valid JSON";
    std::remove(path.c_str());
  }
  obs::TraceRecorder::instance().disable();
}

TEST(Exporter, NamesOneProcessPerRankPresent) {
  // Each thread records under the rank it set, the rank it replaced
  // comes back at scope exit, and an in-process multi-rank snapshot
  // names one Perfetto process per rank.
  enable_full();
  std::vector<std::thread> ranks;
  for (std::uint32_t r = 1; r <= 3; ++r)
    ranks.emplace_back([r] {
      const obs::ScopedRank rank(r);
      obs::record(obs::EventType::kMarker, 0, 0, 0, 0.0);
    });
  for (std::thread& t : ranks) t.join();
  {
    const obs::ScopedRank rank(2);
    obs::record(obs::EventType::kMarker, 0, 0, 0, 0.0);
  }
  obs::record(obs::EventType::kMarker, 0, 0, 0, 0.0);  // rank 0 again
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), 5u);
  std::map<std::uint16_t, int> per_rank;
  for (const obs::Event& e : events) ++per_rank[e.rank];
  EXPECT_EQ(per_rank, (std::map<std::uint16_t, int>{{0, 1}, {1, 1}, {2, 2},
                                                    {3, 1}}));

  std::ostringstream os;
  obs::write_chrome_trace(os, events, obs::ExportMeta{});
  const std::string doc = os.str();
  for (int r = 0; r <= 4; ++r) {
    const std::string name =
        "\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(r) + ",";
    std::size_t found = 0;
    for (std::size_t at = doc.find(name); at != std::string::npos;
         at = doc.find(name, at + 1))
      ++found;
    EXPECT_EQ(found, r <= 3 ? 1u : 0u) << "pid " << r;
  }
  EXPECT_NE(doc.find("\"asyncit r3\""), std::string::npos);
  obs::TraceRecorder::instance().disable();
}

TEST(Exporter, TraceMergeRejectsAnotherRanksEvents) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  // A rank's file holds only that rank's events: one stamped with
  // another rank means a process recorded under the wrong identity.
  enable_full();
  obs::record(obs::EventType::kMarker, 1, 0, 0, 0.0);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "gate_rank_1.trace.json";
  const std::string merged = dir + "gate_merged.trace.json";
  const std::string cmd = std::string("python3 ") + ASYNCIT_SOURCE_DIR +
                          "/tools/trace_merge.py --out " + merged + " " +
                          path + " >/dev/null 2>&1";
  obs::ExportMeta meta;
  meta.rank = 1;
  for (const std::uint16_t stamped : {0, 1}) {
    events[0].rank = stamped;
    {
      std::ofstream f(path);
      obs::write_chrome_trace(f, events, meta);
    }
    EXPECT_EQ(std::system(cmd.c_str()) == 0, stamped == 1)
        << "rank 1 file with an event stamped " << stamped;
  }
  std::remove(path.c_str());
  std::remove(merged.c_str());
  obs::TraceRecorder::instance().disable();
}

TEST(Exporter, TraceMergeAlignsTwoRanks) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  // Two ranks whose recorders were enabled 5 ms apart on the shared
  // realtime clock: after the merge, rank 1's events must be shifted by
  // exactly +5000 us so simultaneous instants line up.
  enable_full();
  obs::record(obs::EventType::kMarker, 1, 0, 0, 0.0);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  events[0].t_ns = 1000000;  // 1 ms on the local ring clock

  const std::string dir = ::testing::TempDir();
  const std::uint64_t epoch0 = 1700000000000000000ull;
  for (std::uint16_t r = 0; r < 2; ++r) {
    obs::ExportMeta meta;
    meta.rank = r;
    meta.epoch_realtime_ns = epoch0 + (r == 1 ? 5000000u : 0u);
    events[0].rank = r;
    std::ofstream f(dir + "rank_" + std::to_string(r) + ".trace.json");
    obs::write_chrome_trace(f, events, meta);
  }
  const std::string merged = dir + "merged.trace.json";
  const std::string cmd = std::string("python3 ") + ASYNCIT_SOURCE_DIR +
                          "/tools/trace_merge.py --dir " + dir + " --out " +
                          merged + " >/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "trace_merge.py failed";

  std::ifstream mf(merged);
  ASSERT_TRUE(mf.good());
  std::stringstream buf;
  buf << mf.rdbuf();
  const std::string doc = buf.str();
  // Rank 0 anchors the timeline; rank 1 is shifted by the 5 ms epoch
  // delta. Its 1 ms event therefore lands at 1000 + 5000 us.
  EXPECT_NE(doc.find("\"asyncit-trace-merged/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"1\": 5000.0"), std::string::npos)
      << "rank 1 offset missing: " << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"ts\": 6000.0"), std::string::npos)
      << "shifted event timestamp missing";
  EXPECT_NE(doc.find("\"ts\": 1000.0"), std::string::npos)
      << "anchor-rank event timestamp missing";
  for (std::uint16_t r = 0; r < 2; ++r)
    std::remove((dir + "rank_" + std::to_string(r) + ".trace.json").c_str());
  std::remove(merged.c_str());
  obs::TraceRecorder::instance().disable();
}

TEST(TraceStreamer, WindowRotationBoundsDiskAndAccountsWrapDrops) {
  enable_full();
  const std::string dir = ::testing::TempDir() + "stream_rot";
  std::filesystem::create_directories(dir);
  obs::StreamerConfig sc;
  sc.dir = dir;
  sc.rank = 0;
  sc.interval_seconds = 3600.0;  // periodic flusher parked; manual flushes
  sc.max_windows = 3;
  sc.label = "obs_test";
  {
    obs::TraceStreamer streamer(sc);
    EXPECT_EQ(obs::TraceStreamer::active(), &streamer);
    // An idle flush is skipped entirely: no file, no sequence spent.
    EXPECT_EQ(streamer.flush_now(), 0u);
    EXPECT_EQ(streamer.windows_written(), 0u);

    for (std::uint64_t k = 0; k < 5; ++k) {
      for (std::uint64_t i = 0; i < 10; ++i)
        obs::record(obs::EventType::kMarker, 3, static_cast<std::uint32_t>(k),
                    k * 10 + i, 0.0);
      EXPECT_EQ(streamer.flush_now(), 10u);
    }
    EXPECT_EQ(streamer.windows_written(), 5u);
    EXPECT_EQ(streamer.events_streamed(), 50u);
    // Rotation keeps exactly the newest max_windows chunks on disk.
    for (std::uint64_t k = 0; k < 5; ++k) {
      const std::string path =
          dir + "/rank_0.window_" + std::to_string(k) + ".trace.json";
      EXPECT_EQ(std::filesystem::exists(path), k >= 2) << path;
    }
    const std::string newest = slurp(dir + "/rank_0.window_4.trace.json");
    EXPECT_NE(newest.find("\"asyncit-trace/2\""), std::string::npos);
    EXPECT_NE(newest.find("\"window_seq\":4"), std::string::npos);
    EXPECT_NE(newest.find("\"events_dropped_window\":0"), std::string::npos);

    // Wrap a fresh-thread ring without flushing: the overwritten events
    // must surface as the NEXT window's drop delta, and the streamer's
    // cumulative dropped_seen() stays pinned to the recorder counter.
    constexpr std::uint64_t kPushes = 1000;
    std::thread writer([] {
      for (std::uint64_t i = 0; i < kPushes; ++i)
        obs::record(obs::EventType::kMarker, 4, 0, i, 0.0);
    });
    writer.join();
    const std::uint64_t dropped =
        obs::TraceRecorder::instance().stats().dropped;
    EXPECT_EQ(dropped, kPushes - (kCap - 1));
    EXPECT_EQ(streamer.flush_now(), kCap - 1);  // the readable window
    EXPECT_EQ(streamer.dropped_seen(), dropped);
    const std::string wrap = slurp(dir + "/rank_0.window_5.trace.json");
    EXPECT_NE(wrap.find("\"events_dropped_window\":" +
                        std::to_string(dropped)),
              std::string::npos);
    EXPECT_NE(wrap.find("\"events_dropped\":" + std::to_string(dropped)),
              std::string::npos);
  }
  EXPECT_EQ(obs::TraceStreamer::active(), nullptr);
  obs::TraceRecorder::instance().disable();
  std::filesystem::remove_all(dir);
}

TEST(TraceStreamer, WindowsStitchBitConsistentWithSingleExitDump) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  // The partition contract from streamer.hpp, end to end through
  // trace_merge.py: the same deterministic event sequence recorded once
  // through three streamed windows and once into a single exit dump
  // must merge to byte-identical timelines.
  const std::string dir_w = ::testing::TempDir() + "stream_windows";
  const std::string dir_s = ::testing::TempDir() + "stream_single";
  std::filesystem::create_directories(dir_w);
  std::filesystem::create_directories(dir_s);
  const auto record_batch = [](std::uint64_t k) {
    for (std::uint64_t i = 0; i < 7; ++i) {
      obs::record(obs::EventType::kBlockUpdate, 0,
                  static_cast<std::uint32_t>(i), k * 7 + i, 0.001);
      obs::record(obs::EventType::kTrainStep, 1,
                  static_cast<std::uint32_t>(k), k * 7 + i, double(i));
    }
  };

  g_fake_ns = 0;
  obs::set_trace_clock(&fake_clock);
  enable_full();
  {
    obs::StreamerConfig sc;
    sc.dir = dir_w;
    sc.rank = 0;
    sc.interval_seconds = 3600.0;
    sc.max_windows = 0;  // keep every window
    sc.label = "obs_test";
    sc.metrics = false;
    obs::TraceStreamer streamer(sc);
    for (std::uint64_t k = 0; k < 3; ++k) {
      record_batch(k);
      EXPECT_EQ(streamer.flush_now(), 14u);
    }
    EXPECT_EQ(streamer.windows_written(), 3u);
  }
  obs::TraceRecorder::instance().disable();

  g_fake_ns = 0;  // identical clock readings for the second pass
  enable_full();
  for (std::uint64_t k = 0; k < 3; ++k) record_batch(k);
  std::vector<obs::Event> events;
  obs::TraceRecorder::instance().snapshot(&events);
  ASSERT_EQ(events.size(), 42u);
  obs::ExportMeta meta;
  meta.rank = 0;
  meta.epoch_realtime_ns = obs::TraceRecorder::instance().epoch_realtime_ns();
  meta.label = "obs_test";
  {
    std::ofstream f(dir_s + "/rank_0.trace.json");
    obs::write_chrome_trace(f, events, meta);
  }
  obs::TraceRecorder::instance().disable();
  obs::set_trace_clock(nullptr);

  const auto merge = [](const std::string& dir) {
    const std::string cmd = std::string("python3 ") + ASYNCIT_SOURCE_DIR +
                            "/tools/trace_merge.py --dir " + dir + " --out " +
                            dir + "/merged.json >/dev/null";
    return std::system(cmd.c_str());
  };
  ASSERT_EQ(merge(dir_w), 0) << "window-stitching merge failed";
  ASSERT_EQ(merge(dir_s), 0) << "single-dump merge failed";

  // Compare the event timelines; otherData legitimately differs (window
  // accounting, per-pass realtime epochs).
  const auto events_part = [](const std::string& path) {
    const std::string doc = slurp(path);
    return doc.substr(0, doc.find("\"otherData\""));
  };
  const std::string stitched = events_part(dir_w + "/merged.json");
  const std::string single = events_part(dir_s + "/merged.json");
  ASSERT_GT(stitched.size(), 100u);
  EXPECT_EQ(stitched, single)
      << "stitched windows are not the single exit dump";
  std::filesystem::remove_all(dir_w);
  std::filesystem::remove_all(dir_s);
}

TEST(OnlineAuditor, MatchesOfflineAuditorsOnTheSameSchedule) {
  // The parity contract: below the series cap the online auditor is the
  // offline model/ auditors, bit for bit, on any schedule. Random
  // schedule with uneven block fairness and drifting labels.
  constexpr std::size_t kBlocks = 7;
  constexpr model::Step kSteps = 4000;
  Rng rng(1234);
  model::ScheduleTrace trace(kBlocks, model::LabelRecording::kMinOnly);
  obs::OnlineAuditor online(kBlocks);
  for (model::Step j = 1; j <= kSteps; ++j) {
    std::vector<la::BlockId> updated;
    updated.push_back(static_cast<la::BlockId>(rng.next() % kBlocks));
    if (rng.next() % 3 == 0)
      updated.push_back(static_cast<la::BlockId>(rng.next() % kBlocks));
    std::sort(updated.begin(), updated.end());
    updated.erase(std::unique(updated.begin(), updated.end()),
                  updated.end());
    const model::Step lag = 1 + rng.next() % 40;
    const model::Step l_min = j > lag ? j - lag : 0;
    trace.record(updated, l_min, {}, 0);
    online.record_step(updated, l_min);
  }

  const obs::AdmissibilityReport got = online.report();
  const model::ConditionAReport a = model::audit_condition_a(trace);
  const model::ConditionBReport b = model::audit_condition_b(trace);
  const model::ConditionCReport c = model::audit_condition_c(trace);
  const model::ConditionDReport d = model::audit_condition_d(trace);

  EXPECT_EQ(got.steps, kSteps);
  EXPECT_EQ(got.a_holds, a.holds);
  EXPECT_EQ(got.quarter_min_labels, b.quarter_min_labels);
  EXPECT_EQ(got.b_diverging, b.diverging);
  EXPECT_EQ(got.b_final_min_label, b.final_min_label);
  EXPECT_EQ(got.c_fair, c.fair);
  EXPECT_EQ(got.c_min_occurrences,
            *std::min_element(c.occurrences.begin(), c.occurrences.end()));
  EXPECT_EQ(got.c_worst_gap,
            *std::max_element(c.max_gap.begin(), c.max_gap.end()));
  EXPECT_EQ(got.d_bound, d.b_min);
  EXPECT_EQ(got.d_at_step, d.at_step);
  EXPECT_DOUBLE_EQ(got.d_mean, d.mean);
  EXPECT_FALSE(got.summary().empty());
}

TEST(OnlineAuditor, CompactionKeepsQuarterMinimaForLongRuns) {
  // Past the series cap the l(j) series pairwise-min compacts; quarter
  // minima must survive (minima are preserved under pairing). Feed a
  // cleanly increasing label schedule through a tiny cap and check the
  // report still sees strictly increasing quarters.
  constexpr std::size_t kBlocks = 2;
  obs::OnlineAuditor online(kBlocks, /*series_capacity=*/64);
  constexpr model::Step kSteps = 10000;
  for (model::Step j = 1; j <= kSteps; ++j) {
    const la::BlockId b = static_cast<la::BlockId>(j % kBlocks);
    online.record_step(std::vector<la::BlockId>{b},
                       j > 5 ? j - 5 : 0);
  }
  const obs::AdmissibilityReport got = online.report();
  ASSERT_EQ(got.quarter_min_labels.size(), 4u);
  EXPECT_TRUE(got.b_diverging);
  EXPECT_TRUE(got.a_holds);
  EXPECT_EQ(got.d_bound, 5u);
  for (std::size_t q = 1; q < 4; ++q)
    EXPECT_GT(got.quarter_min_labels[q], got.quarter_min_labels[q - 1]);
}

TEST(Watchdog, FiresAfterDeadlineAndDumpsState) {
  enable_full();
  obs::record(obs::EventType::kMarker, 0, 1, 2, 3.0);
  std::ostringstream sink;
  {
    obs::Watchdog dog(0.05, "obs_test deliberate overrun", &sink);
    while (!dog.fired()) std::this_thread::sleep_for(
        std::chrono::milliseconds(5));
  }
  const std::string out = sink.str();
  EXPECT_NE(out.find("obs_test deliberate overrun"), std::string::npos);
  EXPECT_NE(out.find("TraceRecorder dump"), std::string::npos);
  EXPECT_NE(out.find("asyncit-metrics/1"), std::string::npos);
  obs::TraceRecorder::instance().disable();
}

TEST(Watchdog, OverrunDumpRoutesThroughActiveStreamerWithoutDoubleDrain) {
  // The regression the single-path rule exists for: a watchdog firing
  // while a streamer is live must flush a window through the streamer,
  // not read the rings behind its back — otherwise the same events (and
  // drop deltas) show up in both the dump and the next window.
  enable_full();
  const std::string dir = ::testing::TempDir() + "stream_dog";
  std::filesystem::create_directories(dir);
  obs::StreamerConfig sc;
  sc.dir = dir;
  sc.rank = 0;
  sc.interval_seconds = 3600.0;
  sc.max_windows = 0;
  sc.label = "obs_test";
  sc.metrics = false;
  {
    obs::TraceStreamer streamer(sc);
    obs::record(obs::EventType::kMarker, 9, 0, 1, 0.0);
    obs::record(obs::EventType::kMarker, 9, 0, 2, 0.0);
    std::ostringstream sink;
    {
      obs::Watchdog dog(0.05, "obs_test streamer overrun", &sink);
      while (!dog.fired())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const std::string out = sink.str();
    EXPECT_NE(out.find("streamed window flush"), std::string::npos);
    EXPECT_EQ(out.find("TraceRecorder dump"), std::string::npos)
        << "watchdog bypassed the single drain path";
    EXPECT_NE(out.find("asyncit-metrics/1"), std::string::npos);
    // The overrun flush is window 0: our two markers plus the watchdog's
    // own arm marker.
    EXPECT_EQ(streamer.windows_written(), 1u);
    EXPECT_EQ(streamer.events_streamed(), 3u);

    // Final flush picks up ONLY what happened since (the disarm marker):
    // every recorded event is streamed exactly once, drops stay zero and
    // the cumulative accounting closes.
    streamer.stop();
    EXPECT_EQ(streamer.windows_written(), 2u);
    EXPECT_EQ(streamer.events_streamed(), 4u);
    const obs::RecorderStats stats = obs::TraceRecorder::instance().stats();
    EXPECT_EQ(stats.recorded, 4u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(streamer.dropped_seen(), stats.dropped);
    EXPECT_EQ(streamer.events_streamed(), stats.recorded - stats.dropped);
  }
  obs::TraceRecorder::instance().disable();
  std::filesystem::remove_all(dir);
}

TEST(Watchdog, DisarmedInTimeStaysSilent) {
  std::ostringstream sink;
  {
    obs::Watchdog dog(30.0, "obs_test never fires", &sink);
    dog.disarm();
    EXPECT_FALSE(dog.fired());
  }
  EXPECT_TRUE(sink.str().empty());
}

TEST(EndToEnd, MessagePassingRunWithTracingAndAudit) {
  // Whole-stack pass: an in-process message-passing run with full
  // tracing + the online auditor produces events, per-link delay
  // histograms, and an admissibility report whose structural condition
  // a cannot fail on a live run (labels are received tags, always from
  // completed steps).
  Rng rng(7);
  auto sys = problems::make_diagonally_dominant_system(48, 3, 2.0, rng);
  la::Partition partition = la::Partition::balanced(48, 6);
  op::JacobiOperator jacobi(sys.a, sys.b, partition);

  net::MpOptions opt;
  opt.workers = 3;
  opt.solve.mode = net::Mode::kAsync;
  opt.solve.tol = 1e-9;
  opt.solve.x_star = op::picard_solve(jacobi, la::zeros(48), 20000, 1e-13);
  opt.solve.max_seconds = 20.0;
  opt.seed = 7;
  opt.obs.trace_level = obs::TraceLevel::kFull;
  opt.obs.audit = true;

  const net::MpResult result =
      net::run_message_passing(jacobi, la::zeros(48), opt);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.obs_events_recorded, 0u);
  ASSERT_EQ(result.admissibility.size(), opt.workers);
  for (const obs::AdmissibilityReport& r : result.admissibility) {
    EXPECT_GT(r.steps, 0u);
    EXPECT_TRUE(r.a_holds);
    EXPECT_GT(r.d_bound, 0u);
  }
  EXPECT_FALSE(result.link_delays.empty());
  for (const auto& link : result.link_delays) {
    EXPECT_NE(link.src, link.dst);
    EXPECT_GT(link.delays.count(), 0u);
    EXPECT_GE(link.delays.p95(), link.delays.p50());
    EXPECT_GE(link.delays.max(), 0.0);
  }
  // The recorder was disabled on exit; later runs without tracing stay
  // clean.
  EXPECT_FALSE(obs::tracing_on());
}

}  // namespace
