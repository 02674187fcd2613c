#include "asyncit/net/peer.hpp"

#include <algorithm>
#include <thread>

#include "asyncit/linalg/norms.hpp"
#include "asyncit/linalg/vector_ops.hpp"
#include "asyncit/obs/metrics.hpp"
#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/runtime/pacing.hpp"
#include "asyncit/support/check.hpp"
#include "asyncit/transport/codec.hpp"
#include "asyncit/transport/wire.hpp"

namespace asyncit::net {

namespace {

/// Whether a value-carrying frame fits this run's geometry: a block the
/// view keeps and a carried range inside it. No correct sender addresses
/// a block to a rank that does not keep it (publication goes to the exact
/// readers of each block). A non-partial frame must carry EXACTLY its
/// block (a shorter payload would silently prefix-overwrite the block yet
/// count as a complete update in the round accounting); only mid-phase
/// partials and delta ranges may carry sub-ranges.
bool fits_view(const la::Partition& partition, const LocalView& view,
               const Message& m) {
  if (m.block >= partition.num_blocks() || view.find(m.block) == nullptr)
    return false;
  const std::size_t size = partition.range(m.block).size();
  if (m.offset + m.value.size() > size) return false;
  return m.partial || (m.offset == 0 && m.value.size() == size);
}

/// This OS thread's dense compute buffer, at least `dim` long: the
/// operator's input for a rank whose view is compact. Every such rank on
/// the thread shares it (a simnet world runs all its ranks on one), so a
/// rank fills what its update reads right before each application. The
/// read-set contract makes the rest of the buffer, left by other ranks
/// or other worlds, irrelevant: block b's rows read only reads(b).
std::span<double> compute_buffer(std::size_t dim) {
  thread_local la::Vector buffer;
  if (buffer.size() < dim) buffer.resize(dim);
  return std::span<double>(buffer).first(dim);
}

}  // namespace

LocalView::LocalView(const la::Partition& partition, const la::Vector& x0,
                     std::vector<la::BlockId> kept) {
  const std::size_t num_blocks = partition.num_blocks();
  ASYNCIT_CHECK(x0.size() == partition.dim());
  for (std::size_t i = 0; i < kept.size(); ++i)
    ASYNCIT_CHECK(kept[i] < num_blocks && (i == 0 || kept[i - 1] < kept[i]));
  if (kept.size() == num_blocks) kept.clear();
  if (kept.empty()) {
    x = x0;
    blocks_.resize(num_blocks);
    for (la::BlockId b = 0; b < num_blocks; ++b)
      blocks_[b].offset = partition.range(b).begin;
  } else {
    blocks_.resize(kept.size());
    std::size_t size = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      blocks_[i].offset = size;
      size += partition.range(kept[i]).size();
    }
    x.reserve(size);
    for (const la::BlockId b : kept) {
      const auto src = partition.block_span(std::span<const double>(x0), b);
      x.insert(x.end(), src.begin(), src.end());
    }
  }
  ids_ = std::move(kept);
}

bool incorporate(const la::Partition& partition, OverwritePolicy policy,
                 const Message& m, LocalView& view) {
  BlockTags* const tags = view.find(m.block);
  if (tags == nullptr) return false;
  const std::span<double> dst = view.block(m.block);
  ASYNCIT_CHECK(m.offset + m.value.size() <= partition.range(m.block).size());
  if (m.tag < tags->max_tag) ++view.inversions;
  tags->max_tag = std::max(tags->max_tag, m.tag);
  if (m.tag <= tags->final_tag) {
    ++view.final_filtered;
    return false;
  }
  if (policy == OverwritePolicy::kNewestTagWins && m.tag <= tags->tag) {
    ++view.stale_filtered;
    return false;
  }
  std::copy(m.value.begin(), m.value.end(), dst.begin() + m.offset);
  tags->tag = m.tag;
  return true;
}

bool apply_final(const la::Partition& partition, const Message& m,
                 LocalView& view) {
  BlockTags* const tags = view.find(m.block);
  if (tags == nullptr) return false;
  const std::span<double> dst = view.block(m.block);
  ASYNCIT_CHECK(m.offset == 0 &&
                m.value.size() == partition.range(m.block).size());
  tags->final_tag = std::max(tags->final_tag, m.tag);
  tags->max_tag = std::max(tags->max_tag, m.tag);
  if (m.tag < tags->tag) return false;
  std::copy(m.value.begin(), m.value.end(), dst.begin());
  tags->tag = m.tag;
  return true;
}

Peer::Peer(const PeerContext& ctx, std::uint32_t id, const la::Vector& x0,
           transport::Endpoint& endpoint)
    : ctx_(ctx),
      id_(id),
      endpoint_(&endpoint),
      round_(0),
      // Round-completion bookkeeping only feeds the SSP/BSP gates
      // (receive() skips it in async mode), and the per-source delay
      // breakdown is opt-out: both are O(world) per peer, which at
      // simulator scale (1000 in-process peers) is pure dead weight.
      complete_rounds_(ctx.options->solve.mode != Mode::kAsync
                           ? ctx.options->workers
                           : 0,
                       0),
      arrivals_(ctx.options->solve.mode != Mode::kAsync
                    ? ctx.options->workers
                    : 0),
      link_delays_(ctx.options->obs.link_delays ? ctx.options->workers
                                                : 0) {
  ASYNCIT_CHECK(endpoint_->rank() == id_);
  stopped_ranks_.assign(ctx_.options->workers, false);
  if (ctx_.options->obs.audit) {
    const std::size_t m = ctx_.op->partition().num_blocks();
    auditor_ = std::make_unique<obs::OnlineAuditor>(m);
    audit_last_changed_.assign(m, 0);
    audit_pending_.assign(m, 0);
    audit_updated_.reserve(m);
  }
  const la::Partition& partition = ctx_.op->partition();
  if (ctx_.membership != nullptr) {
    // Elastic ranks only make sense in the totally asynchronous regime:
    // SSP/BSP round gates would wait forever for a rank that left.
    ASYNCIT_CHECK(ctx_.options->solve.mode == Mode::kAsync);
    owned_epoch_ = ctx_.membership->table().epoch();
    recompute_owned();
    view_ = LocalView(partition, x0);  // any rank may adopt any block
    return;
  }
  owned_ = la::block_share(partition.num_blocks(), ctx_.options->workers, id_)
               .blocks();
  view_ = LocalView(partition, x0, plan_publication());
  if (view_.compact_blocks().empty()) return;
  // Where each owned block's reads sit in the compact view and in the
  // compute buffer.
  for (const la::BlockId b : owned_) {
    const std::size_t first = gathers_.size();
    for (const la::BlockId c : partition.reads(b)) {
      const la::BlockRange r = partition.range(c);
      gathers_.push_back({view_.at(c).offset, r.begin, r.size()});
    }
    gather_range_.emplace_back(first, gathers_.size());
  }
}

std::vector<la::BlockId> snapshot_plan(std::size_t num_blocks,
                                       const std::vector<std::uint32_t>& live,
                                       std::uint32_t self,
                                       std::uint32_t joiner) {
  // Established set = live view minus the joiner; the plan is the same
  // contiguous assignment recompute_owned() uses, so in the settled case
  // (no racing epoch) every rank's plan share IS its owned set and
  // nothing is suppressed.
  std::size_t established = 0;
  std::size_t index = 0;
  bool found = false;
  for (const std::uint32_t r : live) {
    if (r == joiner) continue;
    if (r == self) {
      index = established;
      found = true;
    }
    ++established;
  }
  if (!found || established == 0) return {};
  const std::size_t workers = std::min(established, num_blocks);
  if (index >= workers) return {};  // surplus (idle) rank
  return la::block_share(num_blocks, workers, index).blocks();
}

void Peer::incorporate_tracked(const la::Partition& partition,
                               OverwritePolicy policy, const Message& m) {
  const bool is_final = m.kind == MsgKind::kStop;
  BlockTags& tags = view_.at(m.block);
  const model::Step newest = tags.max_tag;
  const bool applied = is_final ? apply_final(partition, m, view_)
                                : incorporate(partition, policy, m, view_);
  if (!is_final && m.tag < newest)
    obs::record(obs::EventType::kInversion, applied ? 0 : 1,
                static_cast<std::uint32_t>(m.block), newest - m.tag, 0.0);
  if (!applied) return;
  // Audit bridge: an accepted remote value changes the component as of
  // the CURRENT local step — it joins the next own step's S_j.
  if (auditor_ != nullptr) audit_pending_[m.block] = 1;
  // Delta layer: another rank wrote this block (ownership churn / a
  // double-assignment window), so the baselines we hold for it toward
  // EVERY destination no longer describe what we last sent of our own
  // values — force a full-frame resync on the next publish.
  ++tags.rx_epoch;
}

void Peer::stop_here(obs::StopReason reason) {
  const bool criterion = reason == obs::StopReason::kOracle ||
                         reason == obs::StopReason::kDisplacement;
  if (criterion || ctx_.options->solve.mode != Mode::kAsync) send_finals();
  trip_stop(reason);
}

void Peer::trip_stop(obs::StopReason reason) {
  obs::record(obs::EventType::kStopDecision, 0,
              static_cast<std::uint32_t>(reason), own_updates_, now());
  stop_ = true;
}

void Peer::on_peer_stop(const la::Partition& partition, const Message& m) {
  if (!m.value.empty())
    incorporate_tracked(partition, ctx_.options->solve.overwrite, m);
  if (stopped_ranks_[m.src]) return;  // another block of the same leave
  stopped_ranks_[m.src] = true;
  ++peers_stopped_;
  // A deliberate leave: straight to dead in the elastic table (no point
  // probing a rank that said goodbye), and its blocks are adopted at the
  // re-assignment this triggers.
  if (ctx_.membership != nullptr)
    ctx_.membership->table().leave(m.src, now());
  // Gated modes must stop immediately — the departed rank will never
  // complete another round and the SSP/BSP gate would deadlock. The
  // totally asynchronous mode keeps refining until its OWN criterion
  // fires (the departed rank's final values are within tolerance, so
  // convergence completes); only a rank with no local criterion at all
  // stops once everyone else has left — over the LIVE view when elastic,
  // so a spare slot that never joined does not keep it running.
  const SolveOptions& solve = ctx_.options->solve;
  if (solve.mode != Mode::kAsync) {
    trip_stop(obs::StopReason::kPeerStop);
    return;
  }
  if (solve.x_star.has_value() || solve.displacement_tol > 0.0) return;
  const bool all_left = ctx_.membership != nullptr
                            ? all_others_inactive()
                            : peers_stopped_ + 1 >= ctx_.options->workers;
  if (all_left) trip_stop(obs::StopReason::kLiveViewDone);
}

void Peer::receive() {
  inbox_.clear();
  const double tnow = now();
  endpoint_->receive(tnow, inbox_);
  if (!inbox_.empty())
    obs::record(obs::EventType::kQueueDepth,
                static_cast<std::uint8_t>(obs::QueueKind::kInbox), id_,
                inbox_.size(), 0.0);
  // BSP keeps exact Jacobi rounds: a message from a round this peer has
  // not yet finished must not leak into the current snapshot, so it is
  // held back until round_ advances past it. (Fast peers can legally be
  // one round ahead: they got our round-r values and completed round r+1
  // while we are still sweeping round r.) Held-back messages rejoin
  // through holdback_ at the next receive() after round_ advances.
  const bool bsp = ctx_.options->solve.mode == Mode::kBsp;
  const OverwritePolicy policy =
      bsp ? OverwritePolicy::kNewestTagWins : ctx_.options->solve.overwrite;
  const la::Partition& partition = ctx_.op->partition();

  if (bsp && !holdback_.empty()) {
    for (Message& m : holdback_) {
      if (m.round < round_) {
        incorporate_tracked(partition, policy, m);
        recycle_scratch_.push_back(std::move(m));
      } else {
        holdback_keep_.push_back(std::move(m));
      }
    }
    holdback_.swap(holdback_keep_);
    holdback_keep_.clear();
  }

  auto reject = [this](const Message& m) {
    ++frames_rejected_;
    obs::record(obs::EventType::kFrameReject,
                static_cast<std::uint8_t>(m.kind), m.src, m.block, 0.0);
  };
  for (Message& m : inbox_) {
    // Semantic validation BEFORE any field is used as an index: a frame
    // can be wire-valid yet describe another run's geometry (two nodes
    // launched with disagreeing configs). Such a message must be
    // discarded with a counter, not abort the rank via a failed CHECK.
    if (m.src >= ctx_.options->workers || m.src == id_) {
      reject(m);
      continue;
    }
    if (m.kind == MsgKind::kStop) {
      // A rank leaving: bare, or carrying one whole owned block's final.
      if (!m.value.empty() && (m.partial || !fits_view(partition, view_, m)))
        reject(m);
      else
        on_peer_stop(partition, m);
      continue;
    }
    if (is_control(m.kind)) {
      // SWIM failure-detector traffic (membership/swim.hpp). Without an
      // agent these frames describe a protocol this run does not speak —
      // discard with the same counter as any config mismatch.
      if (ctx_.membership == nullptr) {
        reject(m);
      } else {
        obs::record(obs::EventType::kProbe, static_cast<std::uint8_t>(m.kind),
                    m.src, m.tag, 0.0);
        ctx_.membership->on_frame(m, now());
      }
      continue;
    }
    if (!fits_view(partition, view_, m)) {
      reject(m);
      continue;
    }
    // Per-link measured staleness: the drain-time delay of this frame,
    // attributed to its source rank (the (src, dst=this) breakdown that
    // MpResult::link_delays / schema asyncit-node/2 export).
    const double link_delay = std::max(0.0, tnow - m.t_send);
    if (!link_delays_.empty()) link_delays_[m.src].add(link_delay);
    obs::record(obs::EventType::kFrameRecv, static_cast<std::uint8_t>(m.kind),
                m.src, m.tag, link_delay);
    if (ctx_.membership != nullptr)
      ctx_.membership->heard_from(m.src, now());
    // Round-completion tracking (counts at drain time, independent of any
    // BSP holdback). Only SSP/BSP gates consult it — and with message
    // loss (kAsync) an incomplete round would leave its map entry behind
    // forever — so skip the bookkeeping entirely in async mode. A delta
    // frame that ends the sender's phase is partial on the wire but
    // carries the complete flag: it counts like the full-width frame it
    // replaced.
    if ((!m.partial || m.complete) &&
        ctx_.options->solve.mode != Mode::kAsync) {
      const std::size_t need =
          la::block_share(partition.num_blocks(), ctx_.options->workers,
                          m.src)
              .count;
      auto& per_round = arrivals_[m.src];
      ++per_round[m.round];
      auto it = per_round.find(complete_rounds_[m.src]);
      while (it != per_round.end() && it->second >= need) {
        per_round.erase(it);
        ++complete_rounds_[m.src];
        it = per_round.find(complete_rounds_[m.src]);
      }
    }
    if (bsp && m.round >= round_) {
      holdback_.push_back(std::move(m));
      continue;
    }
    incorporate_tracked(partition, policy, m);
  }
  // Return every consumed payload buffer to the endpoint's pool (the
  // shells whose value moved into holdback_ are skipped by the pool).
  endpoint_->recycle(inbox_);
  if (!recycle_scratch_.empty()) endpoint_->recycle(recycle_scratch_);
  service_membership();
}

Peer::DeltaSlot& Peer::delta_slot(std::uint32_t dst, la::BlockId b) {
  const std::uint64_t key =
      std::uint64_t{b} * ctx_.options->workers + dst;
  const auto it = std::lower_bound(delta_key_.begin(), delta_key_.end(), key);
  const auto i = it - delta_key_.begin();
  if (it == delta_key_.end() || *it != key) {
    delta_key_.insert(it, key);
    delta_.emplace(delta_.begin() + i);
  }
  return delta_[static_cast<std::size_t>(i)];
}

void Peer::send_block(la::BlockId b, bool partial) {
  // The next tag beats everything we have SEEN for the block, our own
  // sends included (max_tag only grows): after an elastic re-assignment
  // the new owner continues the previous owner's sequence, so
  // kNewestTagWins receivers accept the adopted block's updates at once.
  BlockTags& tags = view_.at(b);
  const model::Step tag = tags.max_tag + 1;
  tags.tag = tag;
  tags.max_tag = tag;
  const std::span<const double> value = view_.block(b);
  const double t = now();
  const bool allow_drop = ctx_.options->solve.mode == Mode::kAsync;
  const WireOptions& wire = ctx_.options->wire;
  auto send_one = [&](std::uint32_t dst) {
    transport::MessageHeader header;
    header.block = b;
    header.tag = tag;
    header.round = round_;
    header.partial = partial;
    std::span<const double> payload = value;
    DeltaSlot* slot = nullptr;
    bool full = true;
    bool heartbeat = false;
    if (wire.delta) {
      slot = &delta_slot(dst, b);
      // A full refresh re-anchors the link: first contact, ownership
      // churn on the block since the slot was anchored (the receiver's
      // copy may predate our adoption), or the periodic resync that
      // bounds how long a lost delta can linger as drift.
      full = !slot->valid || slot->rx_epoch != tags.rx_epoch ||
             slot->sends_since_refresh + 1 >= wire.refresh_every;
      if (!full) {
        std::size_t lo = 0, hi = value.size();
        const la::Vector& last = slot->last;
        while (lo < hi && value[lo] == last[lo]) ++lo;
        while (hi > lo && value[hi - 1] == last[hi - 1]) --hi;
        if (lo == hi) {
          // Nothing changed since the last frame on this link: send a
          // zero-width heartbeat so the tag/round stream (and the chaos
          // draw sequence — one draw per frame) is unchanged.
          heartbeat = true;
          header.offset = 0;
          payload = {};
        } else {
          std::size_t off = lo, len = hi - lo;
          if (wire.topk != 0 && len > wire.topk) {
            const transport::codec::Window w = transport::codec::best_window(
                value.subspan(lo, len),
                std::span<const double>(last).subspan(lo, len), wire.topk);
            off = lo + w.offset;
            len = w.count;
          }
          header.offset = static_cast<std::uint32_t>(off);
          payload = value.subspan(off, len);
        }
        header.partial = true;
        // The frame replacing a full-width publish keeps its
        // round-accounting weight; a frame that was partial anyway
        // (flexible-mode early publish) stays weightless.
        header.complete = !partial;
      }
    }
    if (wire.quant_bits != 0 && !full && !payload.empty()) {
      // Quantize delta ranges only: full-width refresh frames always
      // carry exact doubles, so accumulated compression error is wiped
      // at every resync and the steady-state noise floor is set by ONE
      // inter-refresh window of delta steps (~ payload range * 2^-bits
      // per frame), never by unbounded drift. Components that go exactly
      // stationary stop paying it entirely (their frames degenerate to
      // heartbeats); the stopping tolerance of a lossy run must still
      // sit above the floor of the components that keep moving.
      // Round-trip the payload onto the quantization lattice BEFORE the
      // send: every backend (inproc hands over these doubles, TCP
      // re-quantizes exactly since they sit on lattice points) delivers
      // bit-identical values, and slot->last below tracks what the
      // receiver actually holds.
      codec_scratch_.assign(payload.begin(), payload.end());
      const transport::codec::QuantParams qp =
          transport::codec::choose_quant_params(codec_scratch_,
                                                wire.quant_bits);
      transport::codec::roundtrip(codec_scratch_, qp, wire.quant_bits);
      header.quant_bits = static_cast<std::uint8_t>(wire.quant_bits);
      header.quant_min = qp.min;
      header.quant_scale = qp.scale;
      payload = codec_scratch_;
      ++wire_frames_codec_;
    }
    const transport::SendReceipt receipt =
        transport::send_traced(*endpoint_, dst, header, payload, t, allow_drop);
    const std::uint64_t sent =
        transport::wire_frame_bytes(payload.size(), header.quant_bits);
    bytes_sent_raw_ += transport::frame_bytes(value.size());
    bytes_sent_wire_ += sent;
    if (!wire.delta || full)
      ++wire_frames_full_;
    else if (heartbeat)
      ++wire_frames_heartbeat_;
    else
      ++wire_frames_delta_;
    if (receipt.sent && slot != nullptr) {
      // The slot mirrors what the receiver now holds — update it only
      // when the frame actually left (a dropped frame leaves the
      // receiver, and therefore the slot, unchanged).
      if (full) {
        slot->last.assign(payload.begin(), payload.end());
        slot->valid = true;
        slot->sends_since_refresh = 0;
        slot->rx_epoch = tags.rx_epoch;
      } else {
        ++slot->sends_since_refresh;
        if (!heartbeat)
          std::copy(payload.begin(), payload.end(),
                    slot->last.begin() + header.offset);
      }
    }
    if (receipt.sent)
      obs::record(obs::EventType::kFrameSend,
                  static_cast<std::uint8_t>(header.kind), dst, tag,
                  double(sent));
  };
  for (const std::uint32_t dst : readers_of(b))
    if (sends_to(dst)) send_one(dst);
  if (partial) ++partials_sent_;
}

std::vector<la::BlockId> Peer::plan_publication() {
  const la::Partition& partition = ctx_.op->partition();
  const SolveOptions& solve = ctx_.options->solve;
  const std::size_t world = ctx_.options->workers;
  // Every rank reads every block without read sets, in the gated modes
  // (one rank's stop ends every rank, and the round gates count every
  // rank's frames), and under the displacement rule (its confirmation
  // reads the whole view).
  const bool displacement =
      !solve.x_star.has_value() && solve.displacement_tol > 0.0;
  const bool dense = !partition.has_reads() ||
                     solve.mode != Mode::kAsync || displacement;
  if (dense) {
    for (std::uint32_t r = 0; r < world; ++r)
      if (r != id_) readers_.push_back(r);
    reader_range_.assign(owned_.size(), {0, readers_.size()});
    return {};
  }
  // Owners of `blocks` other than this rank, appended to `out` from
  // `first` on, sorted and deduplicated.
  auto add_owners = [&](std::span<const la::BlockId> blocks,
                        std::vector<std::uint32_t>& out, std::size_t first) {
    for (const la::BlockId c : blocks) {
      const auto r = static_cast<std::uint32_t>(
          la::block_owner(partition.num_blocks(), world, c));
      if (r != id_) out.push_back(r);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first),
                          out.end()),
              out.end());
  };
  for (const la::BlockId b : owned_) {
    const std::size_t first = readers_.size();
    add_owners(partition.readers(b), readers_, first);
    reader_range_.emplace_back(first, readers_.size());
  }
  // The view keeps what the owned blocks read (each reads itself).
  std::vector<la::BlockId> kept;
  for (const la::BlockId b : owned_) {
    const std::span<const la::BlockId> reads = partition.reads(b);
    kept.insert(kept.end(), reads.begin(), reads.end());
    add_owners(reads, notices_, 0);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  std::vector<std::uint32_t> told = readers_;
  std::sort(told.begin(), told.end());
  std::erase_if(notices_, [&](std::uint32_t r) {
    return std::binary_search(told.begin(), told.end(), r);
  });
  return kept;
}

std::size_t Peer::owned_index(la::BlockId b) const {
  return static_cast<std::size_t>(
      std::lower_bound(owned_.begin(), owned_.end(), b) - owned_.begin());
}

std::span<const std::uint32_t> Peer::readers_of(la::BlockId b) const {
  // Elastic: the LIVE view (suspects included — they are still presumed
  // members until the grace period expires), since any of them may
  // adopt any block.
  if (ctx_.membership != nullptr) return ctx_.membership->table().live_ranks();
  const auto [first, last] = reader_range_[owned_index(b)];
  return std::span<const std::uint32_t>(readers_).subspan(first, last - first);
}

std::span<const double> Peer::gather_reads(la::BlockId b) {
  const std::span<double> buffer =
      compute_buffer(ctx_.op->partition().dim());
  const auto [first, last] = gather_range_[owned_index(b)];
  for (std::size_t i = first; i < last; ++i) {
    const Gather& g = gathers_[i];
    std::copy_n(view_.x.begin() + static_cast<std::ptrdiff_t>(g.from), g.size,
                buffer.begin() + static_cast<std::ptrdiff_t>(g.to));
  }
  return buffer;
}

std::span<const std::uint32_t> Peer::leave_notices() const {
  if (ctx_.membership == nullptr) return notices_;
  if (owned_.empty()) return ctx_.membership->table().live_ranks();
  return {};
}

void Peer::send_finals() {
  // The finals close the leaver's blocks at every reader: a lost last
  // value frame (drops) or an older one arriving late (non-FIFO links
  // under kLastArrivalWins) would otherwise leave a reader holding a
  // stale block of a rank that will never send again. The leave notices
  // tell the ranks this one reads from that it has gone, so they stop
  // retrying their own kStops toward it.
  const double t = now();
  for (const la::BlockId b : owned_)
    for (const std::uint32_t dst : readers_of(b))
      if (sends_to(dst)) send_stop(dst, b, /*final=*/true, t);
  for (const std::uint32_t dst : leave_notices())
    if (sends_to(dst)) send_stop(dst, 0, /*final=*/false, t);
}

void Peer::send_stop(std::uint32_t dst, la::BlockId b, bool final,
                     double t) {
  transport::MessageHeader header;
  header.kind = MsgKind::kStop;
  header.round = round_;
  std::span<const double> value;
  if (final) {
    header.block = b;
    header.tag = view_.at(b).tag;
    value = view_.block(b);
  }
  if (!transport::send_traced(*endpoint_, dst, header, value, t,
                              /*allow_drop=*/false)
           .sent)
    unsent_stops_.push_back({dst, b, final});
}

void Peer::resend_stops() {
  std::vector<UnsentStop> pending;
  while (!unsent_stops_.empty() && now() <= ctx_.options->solve.max_seconds) {
    const std::uint64_t seen = endpoint_->activity();
    endpoint_->wait_for_activity(seen, rt::kMaxGateWait);
    receive();
    pending.swap(unsent_stops_);
    const double t = now();
    for (const UnsentStop& s : pending)
      if (!has_left(s.dst)) send_stop(s.dst, s.block, s.final, t);
    pending.clear();
  }
}

bool Peer::has_left(std::uint32_t dst) const {
  return stopped_ranks_[dst] ||
         (ctx_.options->solve.mode != Mode::kAsync && peers_stopped_ > 0);
}

bool Peer::all_others_inactive() const {
  const membership::MembershipTable& table = ctx_.membership->table();
  for (std::uint32_t r = 0; r < ctx_.options->workers; ++r) {
    if (r == id_ || stopped_ranks_[r]) continue;
    const membership::MemberState s = table.state(r);
    if (s == membership::MemberState::kAlive ||
        s == membership::MemberState::kSuspect)
      return false;
  }
  return true;
}

void Peer::recompute_owned() {
  // Blocks are re-assigned over the SORTED live ranks, so every rank with
  // the same view computes the same assignment (surplus ranks beyond the
  // block count idle, receive-only). Transient view disagreement (gossip
  // in flight) only double-assigns or orphans blocks briefly — both are
  // plain staleness under the totally asynchronous convergence theory.
  owned_ = snapshot_plan(ctx_.op->partition().num_blocks(),
                         ctx_.membership->table().live_ranks(), id_,
                         /*joiner=*/ctx_.options->workers);
}

void Peer::send_snapshot_to(std::uint32_t dst) {
  // Welcome a joiner with a DISJOINT slice of the iterate: every
  // established rank runs the same deterministic plan over the same
  // sorted live view, so each block reaches the joiner exactly once
  // instead of once per surviving owner of a stale assignment. Blocks we
  // own but the plan routes through someone else are counted as
  // suppressed duplicates. (Plain kValue frames — the receiver needs no
  // special path.)
  const la::Partition& partition = ctx_.op->partition();
  const double t = now();
  snapshot_plan_ =
      snapshot_plan(partition.num_blocks(),
                    ctx_.membership->table().live_ranks(), id_, dst);
  for (const la::BlockId b : owned_) {
    if (std::find(snapshot_plan_.begin(), snapshot_plan_.end(), b) ==
        snapshot_plan_.end())
      ++snapshot_blocks_suppressed_;
  }
  for (const la::BlockId b : snapshot_plan_) {
    transport::MessageHeader header;
    header.block = b;
    // We may be forwarding a block we do not own: beat nothing, just
    // ship the value we hold at the tag it arrived (or was sent) under.
    header.tag = view_.at(b).tag;
    header.round = round_;
    const std::span<const double> value = view_.block(b);
    if (transport::send_traced(*endpoint_, dst, header, value, t,
                               /*allow_drop=*/false)
            .sent)
      obs::record(obs::EventType::kFrameSend,
                  static_cast<std::uint8_t>(header.kind), dst, header.tag,
                  double(transport::frame_bytes(value.size())));
    ++snapshot_blocks_sent_;
  }
}

void Peer::service_membership() {
  membership::SwimAgent* agent = ctx_.membership;
  if (agent == nullptr) return;
  agent->tick(now());
  if (!agent->outbox().empty()) {
    const double t = now();
    for (const membership::ControlFrame& f : agent->outbox()) {
      transport::MessageHeader header;
      header.kind = f.kind;
      header.block = f.target;
      header.tag = f.seq;
      obs::record(obs::EventType::kProbe, static_cast<std::uint8_t>(f.kind),
                  f.dst, f.seq, 0.0);
      // allow_drop=true: the DEFAULT DeliveryPolicy spares control
      // frames anyway (drop_control=false); flipping the flag turns the
      // chaos loss model into a failure-detector stress test.
      transport::send_traced(*endpoint_, f.dst, header, f.payload, t,
                             /*allow_drop=*/true);
    }
    agent->outbox().clear();
  }
  events_scratch_.clear();
  agent->drain_events(events_scratch_);
  for (const membership::Event& e : events_scratch_) {
    obs::record(obs::EventType::kMembership,
                static_cast<std::uint8_t>(e.kind), e.rank, e.incarnation,
                0.0);
    if (e.kind == membership::EventKind::kJoined && e.rank != id_)
      send_snapshot_to(e.rank);  // pre-re-assignment owned set: the
                                 // established ranks jointly cover x
  }
  if (owned_epoch_ != agent->table().epoch()) {
    owned_epoch_ = agent->table().epoch();
    recompute_owned();
    ++reassignments_;
    // A death may complete the live-view termination condition for a
    // rank with no local criterion (everyone else stopped or died).
    const bool has_local_criterion =
        ctx_.options->solve.x_star.has_value() ||
        ctx_.options->solve.displacement_tol > 0.0;
    if (!has_local_criterion && all_others_inactive())
      trip_stop(obs::StopReason::kLiveViewDone);
  }
}

void Peer::update_block(la::BlockId b, std::size_t reps,
                        std::span<const double> compute_view) {
  const MpOptions& opt = *ctx_.options;
  const std::span<double> block = view_.block(b);
  phase_out_.resize(block.size());
  const double t_start = now();

  const bool flexible =
      opt.solve.publish_partials && opt.solve.mode != Mode::kBsp && opt.solve.inner_steps > 1;
  const std::size_t inner = opt.solve.mode == Mode::kBsp ? 1 : opt.solve.inner_steps;

  // Displacement of this phase = movement of the block across the phase
  // (only the displacement rule reads it).
  const bool displacement = opt.solve.displacement_tol > 0.0;
  if (displacement) phase_prev_.assign(block.begin(), block.end());

  const bool compact = !view_.compact_blocks().empty();
  for (std::size_t t = 0; t < inner; ++t) {
    // A compact view gathers before every application: the receive()
    // below yields to the other ranks of a simnet world, which fill the
    // same buffer.
    const std::span<const double> in = compact ? gather_reads(b) : compute_view;
    for (std::size_t rep = 0; rep < reps; ++rep)
      ctx_.op->apply_block(b, in, phase_out_, ws_);
    std::copy(phase_out_.begin(), phase_out_.end(), block.begin());
    if (flexible && t + 1 < inner) {
      send_block(b, /*partial=*/true);
      obs::record(obs::EventType::kBlockUpdate, 1,
                  static_cast<std::uint32_t>(b), own_updates_ + 1, 0.0);
      receive();  // incorporate mid-phase arrivals (Definition 3)
    }
  }
  send_block(b, /*partial=*/false);
  if (displacement)
    sweep_displacement_ =
        std::max(sweep_displacement_, la::dist2(phase_out_, phase_prev_));

  ++own_updates_;
  obs::record(obs::EventType::kBlockUpdate, 0, static_cast<std::uint32_t>(b),
              own_updates_, now() - t_start);
  if (auditor_ != nullptr) {
    // Audit bridge: own step j updates S_j = {b} ∪ {blocks a remote
    // incorporation changed since step j-1}; every component was last
    // changed at a step <= j-1, so l(j) = min over last_changed_ gives
    // the condition a–d auditors the measured local schedule.
    const model::Step j = own_updates_;
    model::Step l_min = audit_last_changed_[0];
    for (const model::Step s : audit_last_changed_) l_min = std::min(l_min, s);
    audit_updated_.clear();
    audit_pending_[b] = 1;
    for (std::size_t i = 0; i < audit_pending_.size(); ++i) {
      if (!audit_pending_[i]) continue;
      audit_pending_[i] = 0;
      audit_updated_.push_back(static_cast<la::BlockId>(i));
      audit_last_changed_[i] = j;
    }
    auditor_->record_step(audit_updated_, l_min);
  }
}

bool Peer::wait_for_rounds(std::uint64_t needed) {
  const std::uint32_t peers =
      static_cast<std::uint32_t>(ctx_.options->workers);
  bool first_pass = true;
  while (!stop_) {
    // Enforce the wall budget INSIDE the gate: a rank whose awaited
    // peer died without a stop frame would otherwise wait forever —
    // maybe_check only runs between updates.
    if (now() > ctx_.options->solve.max_seconds) {
      stop_here(obs::StopReason::kWallBudget);
      return false;
    }
    const std::uint64_t seen = endpoint_->activity();
    receive();
    bool satisfied = true;
    for (std::uint32_t src = 0; src < peers; ++src) {
      if (src == id_) continue;
      if (complete_rounds_[src] < needed) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) return true;
    if (first_pass) {
      // The gate actually blocks this sweep (not satisfied from what was
      // already drained).
      first_pass = false;
      ++gate_stalls_;
    }
    // Sleep until the next pending delivery matures, new data arrives,
    // or the poll bound expires (keeps the stop flag responsive).
    const double t = now();
    const double next = endpoint_->next_delivery();
    double timeout = rt::kMaxGateWait;
    if (next > t) timeout = std::min(timeout, next - t);
    endpoint_->wait_for_activity(seen, std::max(timeout, 1e-5));
  }
  return false;
}

void Peer::maybe_check() {
  const SolveOptions& solve = ctx_.options->solve;
  if (own_updates_ >= solve.max_updates) {
    stop_here(obs::StopReason::kUpdateBudget);
    return;
  }
  if (own_updates_ % solve.check_every != 0) return;
  if (now() > solve.max_seconds) {
    stop_here(obs::StopReason::kWallBudget);
    return;
  }
  if (cpu_timer_ && cpu_timer_->seconds() > rt::kYieldPeriod) {
    cpu_timer_->reset();
    std::this_thread::yield();
  }
}

double Peer::oracle_error() const {
  // The unit-weight max norm, block by block on the operator's partition
  // (dividing by a unit weight is exact, so these are its bits).
  const la::Partition& partition = ctx_.op->partition();
  const la::Vector& x_star = *ctx_.options->solve.x_star;
  double worst = 0.0;
  auto add = [&](la::BlockId b) {
    worst = std::max(
        worst, la::block_distance(view_.block(b),
                                  partition.block_span(x_star, b)));
  };
  if (ctx_.options->solve.mode != Mode::kAsync || ctx_.membership != nullptr) {
    for (la::BlockId b = 0; b < partition.num_blocks(); ++b) add(b);
  } else {
    for (const la::BlockId b : owned_) add(b);
  }
  return worst;
}

void Peer::check_criterion() {
  const SolveOptions& solve = ctx_.options->solve;
  if (solve.x_star.has_value()) {
    if (oracle_error() < solve.tol) stop_here(obs::StopReason::kOracle);
  } else if (solve.displacement_tol > 0.0) {
    if (displacement_stop_.should_stop(
            std::span<double>(&sweep_displacement_, 1), *ctx_.op,
            solve.displacement_tol,
            [this](std::span<double> out) {
              std::copy(view_.x.begin(), view_.x.end(), out.begin());
            },
            ws_))
      stop_here(obs::StopReason::kDisplacement);
  }
}

void Peer::run() {
  // The constructor may have run on another thread; start the per-thread
  // CPU clock here so yield pacing measures THIS thread's consumption.
  if (!ctx_.clock->simulated()) cpu_timer_.emplace();
  const MpOptions& opt = *ctx_.options;
  const bool elastic = ctx_.membership != nullptr;
  const bool bsp = opt.solve.mode == Mode::kBsp;
  const std::uint64_t slack = bsp ? 0 : opt.solve.staleness;
  const std::size_t reps = rt::slowdown_repetitions(opt.worker_slowdown, id_);

  while (!stop_) {
    if (opt.solve.mode != Mode::kAsync && round_ > 0) {
      const std::uint64_t needed = round_ > slack ? round_ - slack : 0;
      if (!wait_for_rounds(needed)) break;
    }
    receive();
    if (stop_) break;
    // The owned set may change UNDER the sweep (a receive() inside
    // update_block can re-run the assignment), so each sweep iterates a
    // stable copy; adopted blocks join the next sweep.
    if (elastic) sweep_owned_ = owned_;
    const std::vector<la::BlockId>& owned = elastic ? sweep_owned_ : owned_;
    sweep_displacement_ = 0.0;
    if (owned.empty()) {
      // Receive-only rank (more live ranks than blocks): keep the
      // detector and the stop checks alive without spinning.
      const std::uint64_t seen = endpoint_->activity();
      if (now() > opt.solve.max_seconds)
        stop_here(obs::StopReason::kWallBudget);
      else
        check_criterion();
      if (!stop_) endpoint_->wait_for_activity(seen, rt::kMaxGateWait);
      continue;
    }
    std::span<const double> compute_view(view_.x);
    if (bsp) {
      snapshot_ = view_.x;  // frozen per-round view: exact Jacobi
      compute_view = snapshot_;
    }
    for (std::size_t i = 0; i < owned.size() && !stop_; ++i) {
      update_block(owned[i], reps, compute_view);
      maybe_check();
      if (!stop_ && !bsp) receive();
    }
    ++round_;
    // The one stop rule: the criterion on the private view at the end
    // of every own sweep, the boundary at which the view has just
    // absorbed a full sweep of this rank's own updates.
    if (!stop_) check_criterion();
  }
  resend_stops();
}

}  // namespace asyncit::net
