// Tests for the transport subsystem: wire-format round trips and garbage
// rejection, pool recycling, the inproc backend's replay determinism
// behind the interface, real TCP loopback delivery, the chaos decorator's
// delay/reorder/drop injection, cross-backend parity of the Jacobi
// problem, and the single-rank node runtime over sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/net/node_runtime.hpp"
#include "asyncit/net/peer.hpp"
#include "asyncit/obs/watchdog.hpp"
#include "chaos_tuning.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/transport/chaos.hpp"
#include "asyncit/transport/codec.hpp"
#include "asyncit/transport/inproc.hpp"
#include "asyncit/transport/pool.hpp"
#include "asyncit/transport/tcp.hpp"
#include "asyncit/transport/wire.hpp"
#include "trace_counts.hpp"

namespace asyncit::transport {
namespace {

// ------------------------------------------------------------------ wire

net::Message random_message(Rng& rng, std::size_t payload) {
  net::Message m;
  m.src = static_cast<std::uint32_t>(rng.uniform_index(64));
  m.block = static_cast<la::BlockId>(rng.uniform_index(1024));
  m.tag = rng.next();
  m.round = rng.next();
  m.partial = rng.bernoulli(0.5);
  // All six wire kinds, values most often (as in a real run).
  m.kind = rng.bernoulli(0.3)
               ? static_cast<net::MsgKind>(rng.uniform_index(net::kNumMsgKinds))
               : net::MsgKind::kValue;
  m.offset = static_cast<std::uint32_t>(rng.uniform_index(32));
  m.injected_delay = rng.uniform(0.0, 0.5);
  m.t_send = rng.uniform(0.0, 100.0);
  m.value.resize(payload);
  for (double& v : m.value) v = rng.normal();
  return m;
}

void expect_equal(const net::Message& a, const net::Message& b) {
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_DOUBLE_EQ(a.injected_delay, b.injected_delay);
  EXPECT_DOUBLE_EQ(a.t_send, b.t_send);
  ASSERT_EQ(a.value.size(), b.value.size());
  for (std::size_t i = 0; i < a.value.size(); ++i)
    EXPECT_DOUBLE_EQ(a.value[i], b.value[i]);
}

TEST(Wire, RoundTripsRandomizedMessages) {
  Rng rng(11);
  std::vector<std::uint8_t> frame;
  net::Message out;
  // Empty payloads (control frames), single coordinates, unroll-tail
  // sizes, and a max-size block all survive the trip bit-exactly.
  for (const std::size_t payload :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{128},
        std::size_t{4096}}) {
    for (int rep = 0; rep < 20; ++rep) {
      const net::Message m = random_message(rng, payload);
      encode_frame(m, frame);
      EXPECT_EQ(frame.size(), frame_bytes(payload));
      std::size_t consumed = 0;
      ASSERT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kOk);
      EXPECT_EQ(consumed, frame.size());
      expect_equal(m, out);
    }
  }
}

TEST(Wire, HeaderOverloadMatchesMessageOverload) {
  Rng rng(12);
  const net::Message m = random_message(rng, 17);
  std::vector<std::uint8_t> a, b;
  encode_frame(m, a);
  MessageHeader h;
  h.block = m.block;
  h.tag = m.tag;
  h.round = m.round;
  h.offset = m.offset;
  h.partial = m.partial;
  h.kind = m.kind;
  h.injected_delay = m.injected_delay;
  encode_frame(m.src, h, m.value, m.t_send, b);
  EXPECT_EQ(a, b);
}

TEST(Wire, TruncatedFramesWantMoreBytes) {
  Rng rng(13);
  const net::Message m = random_message(rng, 9);
  std::vector<std::uint8_t> frame;
  encode_frame(m, frame);
  net::Message out;
  std::size_t consumed = 1;
  // Every strict prefix is "incomplete", never "corrupt" — a reader
  // keeps its reassembly buffer and waits for the rest of the frame.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const DecodeStatus st = decode_frame(
        std::span<const std::uint8_t>(frame.data(), n), consumed, out);
    EXPECT_EQ(st, DecodeStatus::kNeedMore) << "prefix " << n;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Wire, RejectsGarbageFrames) {
  Rng rng(14);
  const net::Message m = random_message(rng, 5);
  std::vector<std::uint8_t> frame;
  net::Message out;
  std::size_t consumed = 0;

  encode_frame(m, frame);
  frame[4] ^= 0xFF;  // magic
  EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);

  encode_frame(m, frame);
  frame[6] = 99;  // version
  EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);

  encode_frame(m, frame);
  frame[7] = 0xF0;  // unknown flag bits
  EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);

  encode_frame(m, frame);
  frame[36] ^= 0x01;  // payload count inconsistent with frame length
  EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);

  // An insane declared length is rejected from the 4-byte prefix alone —
  // a corrupt stream must not make the reader buffer gigabytes.
  std::vector<std::uint8_t> huge = {0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_EQ(decode_frame(huge, consumed, out), DecodeStatus::kBadFrame);

  // A length that is not header + whole doubles is structurally broken.
  std::vector<std::uint8_t> ragged = {
      static_cast<std::uint8_t>(kWireHeaderBytes + 3), 0, 0, 0};
  EXPECT_EQ(decode_frame(ragged, consumed, out), DecodeStatus::kBadFrame);
}

TEST(Wire, DecodesBackToBackFramesFromOneBuffer) {
  Rng rng(15);
  std::vector<std::uint8_t> stream, frame;
  std::vector<net::Message> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(random_message(rng, 3 + i));
    encode_frame(sent.back(), frame);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::size_t off = 0;
  for (int i = 0; i < 5; ++i) {
    net::Message out;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(std::span<const std::uint8_t>(
                               stream.data() + off, stream.size() - off),
                           consumed, out),
              DecodeStatus::kOk);
    expect_equal(sent[static_cast<std::size_t>(i)], out);
    off += consumed;
  }
  EXPECT_EQ(off, stream.size());
}

// ------------------------------------------------------------------ codec

TEST(Codec, QuantRoundtripIsIdempotentAndOrdersPreserved) {
  Rng rng(91);
  for (const unsigned bits : {8u, 16u}) {
    la::Vector v(37);
    for (double& x : v) x = rng.normal() * 3.0;
    const codec::QuantParams p = codec::choose_quant_params(v, bits);
    la::Vector once(v);
    codec::roundtrip(once, p, bits);
    // Every lattice value sits inside the payload's own [min, max] and
    // within one step of its source.
    const double step = p.scale;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_LE(std::abs(once[i] - v[i]), step + 1e-12);
    }
    // Idempotence: a second trip through the SAME params moves nothing —
    // this is what lets the TCP encoder re-quantize pre-roundtripped
    // payloads without changing a single bit.
    la::Vector twice(once);
    codec::roundtrip(twice, p, bits);
    EXPECT_EQ(once, twice);
  }
  // A constant payload has zero range: scale falls back to 1, everything
  // quantizes to q=0 and dequantizes to exactly the constant.
  la::Vector flat(9, 4.25);
  const codec::QuantParams p = codec::choose_quant_params(flat, 8);
  codec::roundtrip(flat, p, 8);
  for (const double x : flat) EXPECT_DOUBLE_EQ(x, 4.25);
}

TEST(Codec, BestWindowCoversTheDensestChange) {
  // Change mass concentrated at the tail: the window must slide there.
  la::Vector last(16, 0.0), cur(16, 0.0);
  cur[12] = 5.0;
  cur[13] = 5.0;
  const codec::Window w = codec::best_window(cur, last, 4);
  EXPECT_EQ(w.count, 4u);
  EXPECT_GE(w.offset + w.count, 14u);  // window contains both spikes
  EXPECT_LE(w.offset, 12u);
  // Shorter input than the cap: the whole span comes back.
  const codec::Window all = codec::best_window(
      std::span<const double>(cur).subspan(0, 3),
      std::span<const double>(last).subspan(0, 3), 8);
  EXPECT_EQ(all.offset, 0u);
  EXPECT_EQ(all.count, 3u);
}

TEST(Wire, CodecFramesRoundTripToTheExactLattice) {
  Rng rng(92);
  std::vector<std::uint8_t> frame;
  net::Message out;
  for (const unsigned bits : {8u, 16u}) {
    net::Message m = random_message(rng, 24);
    m.kind = net::MsgKind::kValue;
    // Sender-side contract: the payload is roundtripped onto the
    // quantization lattice BEFORE encoding, so the wire trip is lossless
    // relative to what the sender believes it shipped.
    const codec::QuantParams p =
        codec::choose_quant_params(m.value, bits);
    codec::roundtrip(m.value, p, bits);
    MessageHeader h;
    h.block = m.block;
    h.tag = m.tag;
    h.round = m.round;
    h.offset = m.offset;
    h.partial = m.partial;
    h.complete = m.complete;
    h.kind = m.kind;
    h.injected_delay = m.injected_delay;
    h.quant_bits = static_cast<std::uint8_t>(bits);
    h.quant_min = p.min;
    h.quant_scale = p.scale;
    encode_frame(m.src, h, m.value, m.t_send, frame);
    EXPECT_EQ(frame.size(), wire_frame_bytes(m.value.size(), bits));
    EXPECT_LT(frame.size(), frame_bytes(m.value.size()));  // it shrank
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kOk);
    EXPECT_EQ(consumed, frame.size());
    expect_equal(m, out);  // bit-exact: dequant is the one arithmetic
  }
}

TEST(Wire, CompleteFlagSurvivesTheRoundTrip) {
  Rng rng(93);
  std::vector<std::uint8_t> frame;
  net::Message out;
  for (const bool complete : {false, true}) {
    net::Message m = random_message(rng, 7);
    m.partial = true;
    m.complete = complete;
    encode_frame(m, frame);
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kOk);
    EXPECT_EQ(out.complete, complete);
  }
}

TEST(Wire, RejectsFramesBeyondTheConfiguredBlockBound) {
  Rng rng(94);
  net::Message m = random_message(rng, 16);
  m.offset = 8;
  std::vector<std::uint8_t> frame;
  encode_frame(m, frame);
  net::Message out;
  std::size_t consumed = 0;
  // Inside the bound: fine. offset 8 + count 16 = 24.
  EXPECT_EQ(decode_frame(frame, consumed, out, 24), DecodeStatus::kOk);
  // One short of the range: the frame would write past the block.
  consumed = 0;
  EXPECT_EQ(decode_frame(frame, consumed, out, 23), DecodeStatus::kBadFrame);
  EXPECT_EQ(consumed, 0u);
  // Overflow guard: an offset near UINT32_MAX must not wrap the sum back
  // under the bound (the check runs in 64-bit).
  encode_frame(m, frame);
  const std::uint32_t huge = 0xFFFFFFF0u;
  for (int i = 0; i < 4; ++i)
    frame[32 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);
  EXPECT_EQ(consumed, 0u);
}

// ------------------------------------------------------------- wire fuzz

/// One seeded mutation of a valid frame. Classes cover the decoder's
/// attack surface: truncation, random bit flips, length-prefix lies, the
/// reserved kind encodings 6-7, and outright garbage.
std::vector<std::uint8_t> mutate_frame(Rng& rng,
                                       const std::vector<std::uint8_t>& frame,
                                       int clazz) {
  std::vector<std::uint8_t> out(frame);
  switch (clazz) {
    case 0: {  // truncation: any strict prefix
      out.resize(rng.uniform_index(frame.size()));
      break;
    }
    case 1: {  // 1..8 random bit flips anywhere
      const std::size_t flips = 1 + rng.uniform_index(8);
      for (std::size_t f = 0; f < flips; ++f) {
        const std::size_t byte = rng.uniform_index(out.size());
        out[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      }
      break;
    }
    case 2: {  // length-prefix lie: arbitrary u32, frame bytes unchanged
      const std::uint32_t lie = static_cast<std::uint32_t>(rng.next());
      for (int i = 0; i < 4; ++i)
        out[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(lie >> (8 * i));
      break;
    }
    case 3: {  // reserved kind bits: 6 or 7 in flags bits 1-3
      const std::uint8_t kind = rng.bernoulli(0.5) ? 6 : 7;
      out[7] = static_cast<std::uint8_t>((out[7] & 0x01) | (kind << 1));
      break;
    }
    default: {  // pure garbage of arbitrary length
      out.resize(rng.uniform_index(200));
      for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
      break;
    }
  }
  return out;
}

TEST(WireFuzz, MutatedFramesNeverCrashNorOverreadAndClassifyDeterministically) {
  // Deterministic seeded fuzz over the decoder. Every mutated buffer is
  // copied into an EXACTLY-sized heap allocation, so any read past the
  // span is a heap-buffer-overflow under the asan CI leg, not silent luck.
  constexpr int kIterations = 20000;
  std::vector<std::uint8_t> statuses[2];
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(4242);  // same seed both passes: classification must replay
    std::vector<std::uint8_t> frame;
    net::Message out;
    for (int iter = 0; iter < kIterations; ++iter) {
      const net::Message m =
          random_message(rng, rng.uniform_index(64));
      encode_frame(m, frame);
      const std::vector<std::uint8_t> fuzzed =
          mutate_frame(rng, frame, static_cast<int>(rng.uniform_index(5)));
      // Exact-size heap copy: over-reads have nowhere to hide.
      auto exact = std::make_unique<std::uint8_t[]>(fuzzed.size());
      std::copy(fuzzed.begin(), fuzzed.end(), exact.get());
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(
          std::span<const std::uint8_t>(exact.get(), fuzzed.size()),
          consumed, out);
      statuses[pass].push_back(static_cast<std::uint8_t>(st));
      switch (st) {
        case DecodeStatus::kOk:
          // A decode that "succeeds" must be internally consistent: the
          // bytes eaten match the declared payload and never exceed the
          // buffer (a length lie that survives must have been a valid
          // frame re-encoding).
          ASSERT_LE(consumed, fuzzed.size());
          ASSERT_GE(consumed, 4 + kWireHeaderBytes);
          ASSERT_LE(out.value.size(), std::size_t{kMaxPayloadDoubles});
          // A mutation can legitimately land on either payload layout
          // (a flipped codec flag with a consistent subheader decodes).
          ASSERT_TRUE(consumed == frame_bytes(out.value.size()) ||
                      consumed == wire_frame_bytes(out.value.size(), 8) ||
                      consumed == wire_frame_bytes(out.value.size(), 16));
          break;
        case DecodeStatus::kNeedMore:
        case DecodeStatus::kBadFrame:
          ASSERT_EQ(consumed, 0u);
          break;
      }
    }
    // The reserved kind encodings are never accepted, whatever else the
    // fuzzer left in the frame.
    encode_frame(random_message(rng, 3), frame);
    for (const std::uint8_t kind : {std::uint8_t{6}, std::uint8_t{7}}) {
      frame[7] = static_cast<std::uint8_t>((frame[7] & 0x01) | (kind << 1));
      std::size_t consumed = 0;
      EXPECT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kBadFrame);
    }
  }
  EXPECT_EQ(statuses[0], statuses[1]) << "fuzz classification not replayable";
}

TEST(WireFuzz, TrainingFrameCorpusSurvivesEveryMutationClass) {
  // The PSGD layer's frame shapes as a dedicated fuzz corpus: a worker
  // delta (kValue, partial, offset/count = gradient support, round =
  // worker clock, tag = send sequence), a server parameter publication
  // (kValue, full block, round = server round, tag = version) and the
  // zero-payload kStop both directions. They ride the solve wire format
  // unchanged, so the decoder must give them the same guarantees: no
  // crash or overread under mutation, replayable classification, and
  // consistent consumed/payload accounting on survivors.
  constexpr int kMutationsPerFrame = 4000;
  std::vector<std::uint8_t> statuses[2];
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(777);
    std::vector<net::Message> corpus;
    {  // worker -> server delta
      net::Message d;
      d.src = 2;
      d.block = 0;
      d.kind = net::MsgKind::kValue;
      d.partial = true;
      d.offset = 17;
      d.tag = 91;     // send sequence
      d.round = 340;  // worker clock
      d.value.resize(23);
      for (double& v : d.value) v = rng.normal();
      corpus.push_back(std::move(d));
    }
    {  // server -> worker parameter version
      net::Message p;
      p.src = 0;
      p.block = 0;
      p.kind = net::MsgKind::kValue;
      p.partial = false;
      p.offset = 0;
      p.tag = 57;    // version (newest wins at the worker)
      p.round = 12;  // server round
      p.value.resize(48);
      for (double& v : p.value) v = rng.normal();
      corpus.push_back(std::move(p));
    }
    for (const std::uint32_t src : {std::uint32_t{0}, std::uint32_t{3}}) {
      net::Message s;  // stop frames are payload-free control traffic
      s.src = src;
      s.kind = net::MsgKind::kStop;
      corpus.push_back(std::move(s));
    }
    std::vector<std::uint8_t> frame;
    net::Message out;
    for (const net::Message& m : corpus) {
      encode_frame(m, frame);
      {  // the unmutated frame must round-trip bit-exactly
        std::size_t consumed = 0;
        ASSERT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kOk);
        expect_equal(m, out);
      }
      for (int iter = 0; iter < kMutationsPerFrame; ++iter) {
        const std::vector<std::uint8_t> fuzzed =
            mutate_frame(rng, frame, static_cast<int>(rng.uniform_index(5)));
        auto exact = std::make_unique<std::uint8_t[]>(fuzzed.size());
        std::copy(fuzzed.begin(), fuzzed.end(), exact.get());
        std::size_t consumed = 0;
        const DecodeStatus st = decode_frame(
            std::span<const std::uint8_t>(exact.get(), fuzzed.size()),
            consumed, out);
        statuses[pass].push_back(static_cast<std::uint8_t>(st));
        if (st == DecodeStatus::kOk) {
          ASSERT_LE(consumed, fuzzed.size());
          ASSERT_TRUE(consumed == frame_bytes(out.value.size()) ||
                      consumed == wire_frame_bytes(out.value.size(), 8) ||
                      consumed == wire_frame_bytes(out.value.size(), 16));
        } else {
          ASSERT_EQ(consumed, 0u);
        }
      }
    }
  }
  EXPECT_EQ(statuses[0], statuses[1])
      << "training-frame fuzz classification not replayable";
}

TEST(WireFuzz, CodecFrameCorpusSurvivesEveryMutationClass) {
  // The wire-efficiency layer's frame shapes as a fuzz corpus: a
  // quantized full refresh, a quantized delta at a nonzero offset, and a
  // zero-width heartbeat. Same guarantees as the raw corpus: no crash or
  // overread under mutation, replayable classification, exact-size heap
  // copies so asan sees every overread.
  constexpr int kMutationsPerFrame = 4000;
  std::vector<std::uint8_t> statuses[2];
  for (int pass = 0; pass < 2; ++pass) {
    Rng rng(888);
    struct Shape {
      std::size_t payload;
      std::uint32_t offset;
      unsigned bits;
      bool partial, complete;
    };
    const Shape shapes[] = {
        {32, 0, 16, false, false},  // quantized full refresh
        {11, 9, 8, true, true},     // quantized delta, phase-ending
        {0, 0, 0, true, true},      // heartbeat (raw, zero-width)
    };
    std::vector<std::uint8_t> frame;
    net::Message out;
    for (const Shape& s : shapes) {
      net::Message m = random_message(rng, s.payload);
      m.kind = net::MsgKind::kValue;
      m.offset = s.offset;
      m.partial = s.partial;
      m.complete = s.complete;
      MessageHeader h;
      h.block = m.block;
      h.tag = m.tag;
      h.round = m.round;
      h.offset = m.offset;
      h.partial = m.partial;
      h.complete = m.complete;
      h.kind = m.kind;
      h.injected_delay = m.injected_delay;
      if (s.bits != 0) {
        const codec::QuantParams p =
            codec::choose_quant_params(m.value, s.bits);
        codec::roundtrip(m.value, p, s.bits);
        h.quant_bits = static_cast<std::uint8_t>(s.bits);
        h.quant_min = p.min;
        h.quant_scale = p.scale;
      }
      encode_frame(m.src, h, m.value, m.t_send, frame);
      {  // the unmutated frame must round-trip bit-exactly
        std::size_t consumed = 0;
        ASSERT_EQ(decode_frame(frame, consumed, out), DecodeStatus::kOk);
        expect_equal(m, out);
      }
      for (int iter = 0; iter < kMutationsPerFrame; ++iter) {
        const std::vector<std::uint8_t> fuzzed =
            mutate_frame(rng, frame, static_cast<int>(rng.uniform_index(5)));
        auto exact = std::make_unique<std::uint8_t[]>(fuzzed.size());
        std::copy(fuzzed.begin(), fuzzed.end(), exact.get());
        std::size_t consumed = 0;
        const DecodeStatus st = decode_frame(
            std::span<const std::uint8_t>(exact.get(), fuzzed.size()),
            consumed, out);
        statuses[pass].push_back(static_cast<std::uint8_t>(st));
        if (st == DecodeStatus::kOk) {
          ASSERT_LE(consumed, fuzzed.size());
          ASSERT_LE(out.value.size(), std::size_t{kMaxPayloadDoubles});
        } else {
          ASSERT_EQ(consumed, 0u);
        }
      }
    }
  }
  EXPECT_EQ(statuses[0], statuses[1])
      << "codec-frame fuzz classification not replayable";
}

TEST(WireFuzz, TcpReaderCountsEveryCorruptStreamInBadFrames) {
  // The counter half of the fuzz contract: every wire-level rejection
  // lands in Transport::bad_frames (and kills exactly its own
  // connection). Elastic mode keeps the acceptor alive so each fuzz case
  // can dial in as a fresh "rank 0" connection.
  TcpOptions topts;
  // Rank 0 is played raw by the test (never dialed by the transport), so
  // its configured port is a placeholder — non-local ranks need one.
  topts.nodes = {{"127.0.0.1", 9}, {"127.0.0.1", 0}};
  topts.local_ranks = {1};
  topts.elastic = true;  // no rendezvous: the test plays rank 0 raw
  TcpTransport tx(std::move(topts));
  Endpoint& e1 = tx.endpoint(1);
  WallTimer clock;

  auto dial_rank0 = [&]() -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(tx.port_of(1));
    EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              0);
    // 8-byte hello: magic "HELO" + rank 0, both little-endian.
    const std::uint8_t hello[8] = {0x4F, 0x4C, 0x45, 0x48, 0, 0, 0, 0};
    EXPECT_EQ(::send(fd, hello, sizeof(hello), MSG_NOSIGNAL), 8);
    return fd;
  };
  auto send_bytes = [&](int fd, std::span<const std::uint8_t> bytes) {
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  };
  // Every wait below gets its OWN deadline (fresh timer per phase): the
  // test runs ~13 sequential socket phases, and a shared budget would
  // let slow early phases starve the later ones into spurious failures
  // on a loaded sanitizer runner. `clock` is only the monotone `now`
  // fed to receive().
  auto wait_bad_frames = [&](std::uint64_t expect) {
    WallTimer deadline;
    while (tx.bad_frames() < expect && deadline.seconds() < 20.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(tx.bad_frames(), expect);
  };
  auto receive_one = [&](std::vector<net::Message>& got) {
    WallTimer deadline;
    while (got.empty() && deadline.seconds() < 20.0) {
      const std::uint64_t seen = e1.activity();
      if (e1.receive(clock.seconds(), got) == 0)
        e1.wait_for_activity(seen, 0.05);
    }
  };

  Rng rng(77);
  std::vector<std::uint8_t> frame;
  std::uint64_t expected_bad = 0;

  // A valid frame through a raw connection is DELIVERED, not counted —
  // the counter is for rejections only.
  {
    const int fd = dial_rank0();
    net::Message m = random_message(rng, 5);
    m.kind = net::MsgKind::kValue;
    encode_frame(m, frame);
    send_bytes(fd, frame);
    std::vector<net::Message> got;
    receive_one(got);
    ASSERT_EQ(got.size(), 1u);
    e1.recycle(got);
    EXPECT_EQ(tx.bad_frames(), 0u);
    ::close(fd);
  }

  // Known-bad mutations, one fresh connection each: every rejection must
  // be counted exactly once (the reader kills the stream at the first).
  for (int iter = 0; iter < 10; ++iter) {
    const int fd = dial_rank0();
    net::Message m = random_message(rng, 1 + rng.uniform_index(8));
    encode_frame(m, frame);
    switch (iter % 5) {
      case 0: frame[4] ^= 0xFF; break;                       // magic
      case 1: frame[6] = 0x7F; break;                        // version
      case 2:                                                // kind 6/7
        frame[7] = static_cast<std::uint8_t>((frame[7] & 0x01) |
                                             ((6 + (iter & 1)) << 1));
        break;
      case 3:                                                // ragged length
        frame[0] = static_cast<std::uint8_t>(kWireHeaderBytes + 3);
        frame[1] = frame[2] = frame[3] = 0;
        break;
      default:                                               // insane length
        frame[0] = frame[1] = frame[2] = 0xFF;
        frame[3] = 0x7F;
        break;
    }
    send_bytes(fd, frame);
    wait_bad_frames(++expected_bad);
    ::close(fd);
  }

  // Mid-stream corruption: the valid prefix frame is delivered, the
  // corrupt continuation is counted, nothing crashes.
  {
    const int fd = dial_rank0();
    net::Message good = random_message(rng, 4);
    good.kind = net::MsgKind::kValue;
    std::vector<std::uint8_t> stream;
    encode_frame(good, stream);
    encode_frame(random_message(rng, 4), frame);
    frame[5] ^= 0x40;  // corrupt magic high byte
    stream.insert(stream.end(), frame.begin(), frame.end());
    send_bytes(fd, stream);
    wait_bad_frames(++expected_bad);
    std::vector<net::Message> got;
    receive_one(got);
    EXPECT_EQ(got.size(), 1u);  // the good frame made it out first
    e1.recycle(got);
    ::close(fd);
  }
}

// ------------------------------------------------------------------ pools

TEST(Pools, MessagePoolRetainsCapacityAndDropsShells) {
  MessagePool pool;
  net::Message m = pool.acquire();
  m.value.assign(64, 1.0);
  const double* data = m.value.data();
  pool.recycle(std::move(m));
  EXPECT_EQ(pool.pooled(), 1u);
  net::Message again = pool.acquire();
  EXPECT_EQ(again.value.data(), data);  // same buffer came back
  EXPECT_GE(again.value.capacity(), 64u);

  net::Message shell;  // moved-from value: capacity 0
  pool.recycle(std::move(shell));
  EXPECT_EQ(pool.pooled(), 0u);  // shells must not poison the pool

  // A drained batch goes back in one call: the shell is dropped here too,
  // and the batch is left empty.
  std::vector<net::Message> batch(3);
  batch[0].value.assign(8, 1.0);
  batch[2].value.assign(8, 2.0);
  pool.recycle(batch);
  EXPECT_EQ(pool.pooled(), 2u);
  EXPECT_TRUE(batch.empty());
}

TEST(Pools, BytePoolRecyclesCleared) {
  BytePool pool;
  std::vector<std::uint8_t> b = pool.acquire();
  b.assign(128, 0xAB);
  pool.recycle(std::move(b));
  std::vector<std::uint8_t> again = pool.acquire();
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 128u);
}

// ----------------------------------------------------------------- inproc

TEST(InprocBackend, DeliversAndReplaysDeterministically) {
  net::DeliveryPolicy policy;
  policy.min_latency = 1e-3;
  policy.max_latency = 5e-2;
  InprocTransport a(2, policy, 77), b(2, policy, 77), c(2, policy, 78);
  MessageHeader h;
  h.block = 0;
  const la::Vector payload{1.0, 2.0};
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    h.tag = static_cast<model::Step>(i + 1);
    const double now = 1e-3 * i;
    const SendReceipt ra =
        a.endpoint(0).send(1, h, payload, now, /*allow_drop=*/false);
    const SendReceipt rb =
        b.endpoint(0).send(1, h, payload, now, /*allow_drop=*/false);
    const SendReceipt rc =
        c.endpoint(0).send(1, h, payload, now, /*allow_drop=*/false);
    // Same seed: identical injected latencies, message by message — the
    // replay-determinism anchor survives the interface refactor.
    EXPECT_DOUBLE_EQ(ra.deliver_at, rb.deliver_at);
    if (ra.deliver_at != rc.deliver_at) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // different seed: different stream
  std::vector<net::Message> got;
  EXPECT_EQ(a.endpoint(1).receive(1e9, got), 100u);
  EXPECT_EQ(a.endpoint(1).delivered(), 100u);
  for (std::size_t i = 1; i < got.size(); ++i)
    EXPECT_LE(got[i - 1].deliver_at, got[i].deliver_at);  // delivery order
  a.endpoint(1).recycle(got);
  EXPECT_TRUE(got.empty());
}

TEST(InprocBackend, DroppedFrameLeavesTheFifoFloorUnchanged) {
  // A frame the loss model drops never leaves the sender, so it must not
  // hold back the frames behind it: with fifo on, each delivered frame is
  // floored at the frames the link actually CARRIED. A twin link without
  // the floor and without loss (the drop draw is consumed either way)
  // exposes every frame's raw latency draw.
  net::DeliveryPolicy policy;
  policy.min_latency = 1e-3;
  policy.max_latency = 1e-1;
  policy.drop_prob = 0.5;
  policy.fifo = true;
  InprocTransport fifo(2, policy, 31);
  policy.fifo = false;
  InprocTransport raw(2, policy, 31);
  MessageHeader h;
  const la::Vector v{1.0};
  double floor = 0.0;
  int shadowed = 0;  // drops whose draw lay above the carried floor
  for (int i = 0; i < 200; ++i) {
    const double now = 1e-4 * i;
    const SendReceipt r = fifo.endpoint(0).send(1, h, v, now, true);
    const double drawn =
        raw.endpoint(0).send(1, h, v, now, /*allow_drop=*/false).deliver_at;
    if (!r.sent) {
      if (drawn > floor) ++shadowed;
      continue;
    }
    floor = std::max(floor, drawn);
    EXPECT_DOUBLE_EQ(r.deliver_at, floor) << "frame " << i;
  }
  EXPECT_GT(shadowed, 0);  // the scenario the rule is about did occur
}

// -------------------------------------------------------------------- tcp

TEST(TcpBackend, LoopbackDeliversContentIntactAndInOrder) {
  TcpOptions topts;
  topts.nodes = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  TcpTransport tx(std::move(topts));
  EXPECT_GT(tx.port_of(0), 0);
  EXPECT_GT(tx.port_of(1), 0);

  Endpoint& e0 = tx.endpoint(0);
  Endpoint& e1 = tx.endpoint(1);
  Rng rng(21);
  constexpr int kCount = 200;
  std::vector<la::Vector> payloads;
  WallTimer clock;
  for (int i = 0; i < kCount; ++i) {
    la::Vector v(1 + rng.uniform_index(16));
    for (double& x : v) x = rng.normal();
    MessageHeader h;
    h.block = static_cast<la::BlockId>(i % 7);
    h.tag = static_cast<model::Step>(i + 1);
    h.round = static_cast<std::uint64_t>(i);
    h.partial = (i % 3) == 0;
    h.offset = static_cast<std::uint32_t>(i % 5);
    const SendReceipt r = e0.send(1, h, v, clock.seconds(), false);
    EXPECT_TRUE(r.sent);
    payloads.push_back(std::move(v));
  }
  std::vector<net::Message> got;
  while (got.size() < kCount && clock.seconds() < 10.0) {
    const std::uint64_t seen = e1.activity();
    if (e1.receive(clock.seconds(), got) == 0)
      e1.wait_for_activity(seen, 0.05);
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const net::Message& m = got[static_cast<std::size_t>(i)];
    EXPECT_EQ(m.src, 0u);
    EXPECT_EQ(m.tag, static_cast<model::Step>(i + 1));  // TCP link: FIFO
    EXPECT_EQ(m.block, static_cast<la::BlockId>(i % 7));
    EXPECT_EQ(m.partial, (i % 3) == 0);
    EXPECT_EQ(m.offset, static_cast<std::uint32_t>(i % 5));
    ASSERT_EQ(m.value.size(), payloads[static_cast<std::size_t>(i)].size());
    for (std::size_t k = 0; k < m.value.size(); ++k)
      EXPECT_DOUBLE_EQ(m.value[k], payloads[static_cast<std::size_t>(i)][k]);
  }
  e1.recycle(got);
  EXPECT_EQ(e0.sent(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(e1.delivered(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(tx.bad_frames(), 0u);

  // Control frames survive the wire with their kind intact.
  MessageHeader stop;
  stop.kind = net::MsgKind::kStop;
  e1.send(0, stop, {}, clock.seconds(), false);
  std::vector<net::Message> ctl;
  while (ctl.empty() && clock.seconds() < 10.0) {
    const std::uint64_t seen = e0.activity();
    if (e0.receive(clock.seconds(), ctl) == 0)
      e0.wait_for_activity(seen, 0.05);
  }
  ASSERT_EQ(ctl.size(), 1u);
  EXPECT_EQ(ctl[0].kind, net::MsgKind::kStop);
  EXPECT_TRUE(ctl[0].value.empty());
  e0.recycle(ctl);
}

TEST(TcpBackend, TeardownWithUndrainedBacklogIsBounded) {
  // Liveness guard: destroying a transport with a send backlog queued
  // toward a peer that stopped reading must be bounded per LINK, never
  // per FRAME. The current teardown honours that because the stop-pipe
  // byte keeps write_all's poll returning immediately once `stopping` is
  // set; this test pins the property so a future writer/teardown change
  // (bounded retries, per-frame waits) cannot silently turn shutdown
  // into minutes. (It does NOT explain the rare chaos-over-TCP wall
  // budget flake documented in ROADMAP — that one predates this PR and
  // remains undiagnosed.) The "peer" here is a raw listener the test
  // owns: it completes the hello handshake and then never reads, so the
  // kernel pipe fills deterministically.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len),
            0);
  const std::uint16_t port = ntohs(sa.sin_port);

  std::atomic<bool> done{false};
  std::thread sink([&] {
    // Accept whatever rank 0's writer dials, swallow the 8-byte hello,
    // then hold the connection open WITHOUT reading.
    std::vector<int> fds;
    while (!done.load()) {
      pollfd p{listener, POLLIN, 0};
      if (::poll(&p, 1, 50) > 0 && (p.revents & POLLIN)) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd >= 0) {
          std::uint8_t hello[8];
          std::size_t got = 0;
          while (got < sizeof(hello)) {
            const ssize_t k = ::recv(fd, hello + got, sizeof(hello) - got, 0);
            if (k <= 0) break;
            got += static_cast<std::size_t>(k);
          }
          fds.push_back(fd);
        }
      }
    }
    for (const int fd : fds) ::close(fd);
  });

  TcpOptions topts;
  topts.nodes = {{"127.0.0.1", 0}, {"127.0.0.1", port}};
  topts.local_ranks = {0};
  topts.elastic = true;  // rank 1 is the raw sink: no rendezvous
  auto tx = std::make_unique<TcpTransport>(std::move(topts));
  Endpoint& e0 = tx->endpoint(0);
  const la::Vector payload(1024, 1.0);  // 8 KiB frames
  MessageHeader h;
  for (int i = 0; i < 3000; ++i) {
    h.tag = static_cast<model::Step>(i + 1);
    e0.send(1, h, payload, 0.0, false);
  }
  // Give the writer a moment to dial the sink and wedge the pipe full,
  // so a real backlog exists when the destructor runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  WallTimer teardown;
  tx.reset();
  const double teardown_seconds = teardown.seconds();
  done.store(true);
  sink.join();
  ::close(listener);
  EXPECT_LT(teardown_seconds, 30.0) << "teardown scaled with the backlog";
}

// ------------------------------------------------------------------ chaos

TEST(ChaosDecorator, HoldsFramesForInjectedLatency) {
  net::DeliveryPolicy zero;  // inner channels deliver immediately
  InprocTransport inner(2, zero, 1);
  net::DeliveryPolicy policy;
  policy.min_latency = 0.010;
  policy.max_latency = 0.020;
  ChaosTransport chaos(inner, policy, 5);
  Endpoint& e0 = chaos.endpoint(0);
  Endpoint& e1 = chaos.endpoint(1);

  MessageHeader h;
  h.tag = 1;
  const la::Vector v{3.0};
  ASSERT_TRUE(e0.send(1, h, v, 0.0, false).sent);
  std::vector<net::Message> got;
  // First seen at t=0.005: scheduled release within [0.015, 0.025].
  EXPECT_EQ(e1.receive(0.005, got), 0u);
  const double next = e1.next_delivery();
  EXPECT_GE(next, 0.015);
  EXPECT_LE(next, 0.025);
  EXPECT_EQ(e1.receive(next - 1e-6, got), 0u);  // still immature
  ASSERT_EQ(e1.receive(next + 1e-9, got), 1u);  // matured
  EXPECT_DOUBLE_EQ(got[0].value[0], 3.0);
  EXPECT_GE(e1.delays().min(), 0.010);  // measured hold >= injected floor
  e1.recycle(got);
}

TEST(ChaosDecorator, DrawsTheSameDropSequenceAsInproc) {
  net::DeliveryPolicy policy;
  policy.min_latency = 1e-4;
  policy.max_latency = 5e-3;
  policy.drop_prob = 0.3;
  constexpr std::uint64_t kSeed = 99;
  constexpr int kCount = 300;

  net::DeliveryPolicy zero;
  InprocTransport inner(2, zero, 1);
  ChaosTransport chaos(inner, policy, kSeed);
  InprocTransport direct(2, policy, kSeed);

  MessageHeader h;
  const la::Vector v{1.0};
  for (int i = 0; i < kCount; ++i) {
    const double now = 1e-4 * i;
    const SendReceipt rc = chaos.endpoint(0).send(1, h, v, now, true);
    const SendReceipt rd = direct.endpoint(0).send(1, h, v, now, true);
    // Chaos derives its per-link streams exactly like inproc, so the
    // drop decisions AND the latency draws coincide message by message.
    EXPECT_EQ(rc.sent, rd.sent) << "message " << i;
    EXPECT_DOUBLE_EQ(rc.deliver_at, rd.deliver_at) << "message " << i;
  }
  EXPECT_GT(chaos.endpoint(0).dropped(), 0u);
  EXPECT_EQ(chaos.endpoint(0).dropped(), direct.endpoint(0).dropped());
  EXPECT_EQ(chaos.endpoint(0).sent(), direct.endpoint(0).sent());
}

TEST(ChaosDecorator, NonFifoReleaseReordersAndFifoFloorRestoresOrder) {
  net::DeliveryPolicy zero;
  for (const bool fifo : {false, true}) {
    InprocTransport inner(2, zero, 1);
    net::DeliveryPolicy policy;
    policy.min_latency = 1e-4;
    policy.max_latency = 5e-2;
    policy.fifo = fifo;
    ChaosTransport chaos(inner, policy, 7);
    Endpoint& e0 = chaos.endpoint(0);
    Endpoint& e1 = chaos.endpoint(1);
    MessageHeader h;
    const la::Vector v{1.0};
    for (int i = 0; i < 100; ++i) {
      h.tag = static_cast<model::Step>(i + 1);
      e0.send(1, h, v, 0.0, false);
    }
    std::vector<net::Message> got;
    e1.receive(0.0, got);  // stage everything (first seen at t=0)
    while (got.size() < 100) ASSERT_LT(e1.receive(1e9, got), 101u);
    ASSERT_EQ(got.size(), 100u);
    bool inverted = false;
    for (std::size_t i = 1; i < got.size(); ++i)
      if (got[i].tag < got[i - 1].tag) inverted = true;
    // Non-FIFO: a later send with a smaller draw matures first (the
    // paper's out-of-order regime); the FIFO floor forbids exactly that.
    EXPECT_EQ(inverted, !fifo);
    e1.recycle(got);
  }
}

TEST(ChaosDecorator, FateDrawsArePayloadWidthInvariant) {
  // The delta layer's determinism contract with the chaos model: fate
  // draws are keyed by FRAME COUNT, not payload bytes. Two identical
  // send sequences — one shipping full blocks, the other the shapes the
  // delta encoder produces (shrunken ranges, zero-width heartbeats) —
  // must consume the drop and latency streams identically, frame by
  // frame. Without this, enabling wire_delta would silently reseed every
  // chaos experiment.
  net::DeliveryPolicy policy;
  policy.min_latency = 1e-4;
  policy.max_latency = 5e-3;
  policy.drop_prob = 0.3;
  constexpr std::uint64_t kSeed = 137;

  net::DeliveryPolicy zero;
  InprocTransport inner_a(2, zero, 1), inner_b(2, zero, 1);
  ChaosTransport full(inner_a, policy, kSeed);
  ChaosTransport delta(inner_b, policy, kSeed);

  Rng rng(5);
  const la::Vector wide(32, 1.0);
  for (int i = 0; i < 400; ++i) {
    MessageHeader hf;
    hf.tag = static_cast<model::Step>(i + 1);
    MessageHeader hd = hf;
    // The delta side varies shape: full, narrow range, or heartbeat.
    std::span<const double> payload(wide);
    switch (rng.uniform_index(3)) {
      case 0: break;
      case 1:
        hd.partial = true;
        hd.complete = true;
        hd.offset = static_cast<std::uint32_t>(rng.uniform_index(24));
        payload = std::span<const double>(wide).subspan(hd.offset, 5);
        break;
      default:
        hd.partial = true;
        hd.complete = true;
        payload = {};
        break;
    }
    const double now = 1e-4 * i;
    const SendReceipt rf = full.endpoint(0).send(1, hf, wide, now, true);
    const SendReceipt rd = delta.endpoint(0).send(1, hd, payload, now, true);
    EXPECT_EQ(rf.sent, rd.sent) << "frame " << i;
    EXPECT_DOUBLE_EQ(rf.deliver_at, rd.deliver_at) << "frame " << i;
  }
  EXPECT_GT(full.endpoint(0).dropped(), 0u);
  EXPECT_EQ(full.endpoint(0).dropped(), delta.endpoint(0).dropped());
}

TEST(ChaosDecorator, LossModelSparesControlFramesUnlessOptedIn) {
  // The regression the flag exists for: a dropped kStop would wedge a
  // gated rank forever, and dropped membership frames would poison the
  // failure detector — control frames must ride through the loss model
  // untouched unless a stress test opts them in (drop_control).
  for (const bool drop_control : {false, true}) {
    net::DeliveryPolicy zero;
    InprocTransport inner(2, zero, 1);
    net::DeliveryPolicy policy;
    policy.drop_prob = 0.6;
    policy.drop_control = drop_control;
    ChaosTransport chaos(inner, policy, 11);
    Endpoint& e0 = chaos.endpoint(0);
    MessageHeader h;
    for (int i = 0; i < 200; ++i) {
      h.kind = (i % 4 == 0) ? net::MsgKind::kStop
                            : (i % 4 == 1) ? net::MsgKind::kPing
                            : (i % 4 == 2) ? net::MsgKind::kAck
                                           : net::MsgKind::kMembershipUpdate;
      e0.send(1, h, {}, 1e-4 * i, /*allow_drop=*/true);
    }
    if (drop_control)
      EXPECT_GT(e0.dropped(), 0u);
    else
      EXPECT_EQ(e0.dropped(), 0u);
  }
  // The exemption consumes the drop draw either way: with an identical
  // interleaving of control and value frames, flipping drop_control
  // changes only the CONTROL frames' fate — the value stream's drop
  // sequence is byte-for-byte the same (replay determinism).
  std::vector<bool> fates[2];
  for (const bool drop_control : {false, true}) {
    net::DeliveryPolicy policy;
    policy.drop_prob = 0.5;
    policy.drop_control = drop_control;
    InprocTransport t(2, policy, 21);
    MessageHeader value_h;
    MessageHeader ping_h;
    ping_h.kind = net::MsgKind::kPing;
    const la::Vector v{1.0};
    std::vector<bool>& value_fate = fates[drop_control ? 1 : 0];
    for (int i = 0; i < 100; ++i) {
      t.endpoint(0).send(1, ping_h, {}, 1e-3 * i, true);
      value_fate.push_back(
          t.endpoint(0).send(1, value_h, v, 1e-3 * i, true).sent);
    }
  }
  EXPECT_EQ(fates[0], fates[1]);
}

// -------------------------------------------------- incorporation (offset)

TEST(PartialBlockFrames, IncorporateWritesOnlyTheCarriedRange) {
  const la::Partition partition = la::Partition::from_sizes({8});
  net::LocalView view(partition, la::Vector(8, 0.0));
  net::Message m;
  m.block = 0;
  m.tag = 1;
  m.offset = 2;
  m.value = {5.0, 6.0, 7.0};
  net::incorporate(partition, net::OverwritePolicy::kLastArrivalWins, m,
                   view);
  const la::Vector expect{0, 0, 5.0, 6.0, 7.0, 0, 0, 0};
  EXPECT_EQ(view.x, expect);
  EXPECT_EQ(view.at(0).tag, 1u);
}

TEST(WireFuzz, SemanticallyInvalidFramesLandInFramesRejected) {
  // Wire-valid frames lying about the run's geometry (foreign block ids,
  // blocks the receiver does not keep, out-of-range sub-ranges, short
  // non-partial payloads) must be counted in MpResult::frames_rejected
  // and never abort a rank. The frames are pre-seeded into the inproc
  // transport before the peers start, so the count is exact. The system
  // is tridiagonal, so block b reads only blocks b-1..b+1: rank 1 owns
  // blocks 2 and 3 and keeps blocks 1-3, and block 0 is in range yet not
  // its to receive.
  Rng rng(31);
  auto sys = problems::make_tridiagonal_system(32, 1.0, rng);
  op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(32, 4));
  op::Workspace ws;
  const la::Vector x_star =
      op::picard_solve(jac, la::zeros(32), 50000, 1e-14, ws);

  net::MpOptions opt;
  opt.workers = 2;
  opt.solve.tol = 1e-8;
  opt.solve.x_star = x_star;
  opt.solve.max_seconds = 20.0;
  InprocTransport tx(2, net::DeliveryPolicy{}, opt.seed);

  const la::Vector block(8, 0.25);
  MessageHeader h;
  h.tag = 1;
  h.block = 999;  // far beyond the 4-block partition
  tx.endpoint(0).send(1, h, block, 0.0, false);
  h.block = 2;
  h.partial = true;
  h.offset = 7;  // 7 + 8 > block size 8: range overruns the block
  tx.endpoint(0).send(1, h, block, 0.0, false);
  h.partial = false;
  h.offset = 0;  // non-partial frames must carry the WHOLE block
  tx.endpoint(0).send(1, h, la::Vector(3, 0.5), 0.0, false);
  h.offset = 2;  // non-partial with a nonzero offset
  tx.endpoint(0).send(1, h, la::Vector(6, 0.5), 0.0, false);
  h.offset = 0;
  h.block = 0;  // a whole block that rank 1 does not keep
  tx.endpoint(0).send(1, h, block, 0.0, false);
  h.kind = net::MsgKind::kStop;  // and a final for it
  tx.endpoint(0).send(1, h, block, 0.0, false);

  const auto r = net::run_message_passing(jac, la::zeros(32), opt, tx);
  EXPECT_TRUE(r.converged) << "error " << r.final_error;
  EXPECT_EQ(r.frames_rejected, 6u);
  EXPECT_EQ(r.bad_frames, 0u);  // inproc carries no byte stream to corrupt
}

// ------------------------------------------- cross-backend parity (Jacobi)

class BackendParityFixture : public ::testing::Test {
 protected:
  BackendParityFixture() : rng_(61) {
    sys_ = problems::make_diagonally_dominant_system(128, 4, 2.0, rng_);
    partition_ = la::Partition::balanced(sys_.dim(), 16);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b,
                                                   partition_);
    x_star_ = op::picard_solve(*jacobi_, la::zeros(sys_.dim()), 50000,
                               1e-14);
  }

  net::MpOptions base_options() const {
    net::MpOptions opt;
    opt.workers = 4;
    opt.chaos.delivery.min_latency = 1e-4;
    opt.chaos.delivery.max_latency = 1e-3;
    opt.solve.tol = 1e-9;
    opt.solve.x_star = x_star_;
    opt.solve.max_seconds = 20.0;
    opt.solve.max_updates = 100000000;
    return opt;
  }

  Rng rng_;
  problems::LinearSystem sys_;
  la::Partition partition_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  la::Vector x_star_;
};

TEST_F(BackendParityFixture, InprocAndTcpLoopbackReachTheSameIterate) {
  const net::MpOptions opt = base_options();
  const auto inproc =
      net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  ASSERT_TRUE(inproc.converged) << "inproc error " << inproc.final_error;

  TcpOptions topts;
  topts.nodes.assign(4, {"127.0.0.1", 0});
  TcpTransport tcp(std::move(topts));
  const auto over_tcp =
      net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt, tcp);
  ASSERT_TRUE(over_tcp.converged) << "tcp error " << over_tcp.final_error;
  EXPECT_GT(over_tcp.messages_delivered, 0u);
  EXPECT_EQ(tcp.bad_frames(), 0u);

  // Both backends drive the same contraction to the same fixed point.
  EXPECT_LT(la::dist_inf(over_tcp.x, inproc.x), 1e-7);
  EXPECT_LT(la::dist_inf(over_tcp.x, x_star_), 1e-7);
}

// Wall-clock canary: simnet_test's ChaosOverSimRunsTheDelayModelInVirtualTime
// is the budget-free twin of this test; this original stays to keep the
// delay model exercised over real sockets and real threads.
TEST_F(BackendParityFixture, ChaosOverTcpRunsTheDelayModelOnRealSockets) {
  net::MpOptions opt = base_options();
  opt.solve.tol = 1e-8;
  // This test has a history of rare wall-budget overruns (ROADMAP —
  // chaos hold queues over real sockets under CI contention). Run it
  // fully traced with a watchdog 2s inside the 20s budget: an overrun
  // now dumps every thread's event ring + per-link queue metrics to
  // stderr instead of timing out silently.
  opt.obs.trace_level = obs::TraceLevel::kFull;
  obs::Watchdog dog(18.0, "ChaosOverTcpRunsTheDelayModelOnRealSockets");
  TcpOptions topts;
  topts.nodes.assign(4, {"127.0.0.1", 0});
  TcpTransport tcp(std::move(topts));
  net::DeliveryPolicy policy;
  policy.min_latency = 2e-4;
  policy.max_latency = 2e-3;
  // Loaded host: compress the injected window instead of overrunning
  // the watchdog (the floor assertion below tracks the scaled policy).
  chaos_tuning::scale_latency_window("ChaosOverTcp", policy.min_latency,
                                     policy.max_latency);
  ChaosTransport chaos(tcp, policy, opt.seed);
  const auto r =
      net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt, chaos);
  dog.disarm();
  EXPECT_FALSE(dog.fired()) << "solve overran the 18s watchdog";
  EXPECT_TRUE(r.converged) << "error " << r.final_error;
  EXPECT_GT(r.delays.count(), 0u);
  // Every measured delay includes the injected hold: the floor of the
  // delay model survives the real socket path.
  EXPECT_GE(r.delays.min(), policy.min_latency);
}

TEST_F(BackendParityFixture, EveryDroppedFrameIsTracedOnce) {
  // The sender traces each drop its receipt reports and the chaos
  // decorator traces none, so the kFrameDrop events are the dropped
  // frames over the plain mailboxes and under the decorator alike.
  net::MpOptions opt = base_options();
  opt.obs.trace_level = obs::TraceLevel::kFull;
  opt.obs.trace_ring_capacity = 1 << 16;
  opt.chaos.delivery.drop_prob = 0.2;
  // An update budget bounds what each rank's ring must hold. Per own
  // update a rank records one kBlockUpdate and, per reader (at most
  // W - 1), one kFrameSend or kFrameDrop. It drains once per update and
  // once per sweep (at most 2B + 1 drains), each drain recording at most
  // an inbox and a chaos-hold kQueueDepth. It receives at most one value
  // frame per update of each other rank, each a kFrameRecv and at most
  // one kInversion. Last comes its kStopDecision. The kStop finals a
  // rank sends when it stops on the oracle, and those it receives, add
  // no event: send_traced traces only a refused send, neither fabric
  // here refuses a send that disallows drops, so resend_stops never
  // drains, and a received final is not a kFrameRecv.
  opt.solve.max_updates = 2000;
  const std::uint64_t budget = opt.solve.max_updates;
  const std::uint64_t w = opt.workers;
  const std::uint64_t ceiling = budget * w + 2 * (2 * budget + 1) +
                                2 * (w - 1) * budget + 1;
  // A ring keeps its newest capacity - 1 events readable.
  ASSERT_LT(ceiling, opt.obs.trace_ring_capacity);
  auto drops_traced = [&opt] {
    const std::vector<std::uint64_t> per_rank =
        count_per_rank(opt.workers, obs::EventType::kFrameDrop);
    return std::accumulate(per_rank.begin(), per_rank.end(),
                           std::uint64_t{0});
  };

  const auto inproc =
      net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt);
  ASSERT_EQ(inproc.obs_events_dropped, 0u) << "a ring wrapped";
  EXPECT_GT(inproc.messages_dropped, 0u);
  EXPECT_EQ(drops_traced(), inproc.messages_dropped);

  InprocTransport mailboxes(opt.workers, net::DeliveryPolicy{}, opt.seed);
  ChaosTransport chaos(mailboxes, opt.chaos.delivery, opt.seed);
  const auto decorated =
      net::run_message_passing(*jacobi_, la::zeros(sys_.dim()), opt, chaos);
  ASSERT_EQ(decorated.obs_events_dropped, 0u) << "a ring wrapped";
  EXPECT_GT(decorated.messages_dropped, 0u);
  EXPECT_EQ(drops_traced(), decorated.messages_dropped);
}

// ------------------------------------------------------- node runtime

TEST_F(BackendParityFixture, RunNodeRanksOverTcpAllConverge) {
  net::MpOptions opt = base_options();
  opt.workers = 2;
  opt.solve.tol = 1e-8;
  TcpOptions topts;
  topts.nodes.assign(2, {"127.0.0.1", 0});
  TcpTransport tcp(std::move(topts));
  net::MpResult results[2];
  std::thread t1([&] {
    results[1] =
        net::run_node(*jacobi_, la::zeros(sys_.dim()), opt, tcp.endpoint(1));
  });
  results[0] =
      net::run_node(*jacobi_, la::zeros(sys_.dim()), opt, tcp.endpoint(0));
  t1.join();
  tcp.flush(2.0);
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(results[r].converged)
        << "rank " << r << " error " << results[r].final_error;
    EXPECT_GT(results[r].total_updates, 0u);
    EXPECT_GT(results[r].messages_delivered, 0u);
  }
}

}  // namespace
}  // namespace asyncit::transport
