#include "asyncit/membership/membership.hpp"

#include <algorithm>

#include "asyncit/support/check.hpp"

namespace asyncit::membership {

namespace {

/// Retransmission budget per gossip update: ~3 log2(world) sends reach
/// every member w.h.p. (the SWIM dissemination bound).
std::size_t budget_for(std::size_t world) {
  std::size_t log2w = 1;
  while ((std::size_t{1} << log2w) < world) ++log2w;
  return 3 * log2w;
}

bool in_live_view(MemberState s) {
  return s == MemberState::kAlive || s == MemberState::kSuspect;
}

}  // namespace

MembershipTable::MembershipTable(
    std::uint32_t self, std::size_t world, double suspicion_timeout,
    const std::vector<std::uint32_t>& initial_alive,
    std::uint64_t incarnation)
    : self_(self),
      suspicion_timeout_(suspicion_timeout),
      members_(world),
      gossip_budget_(budget_for(world)) {
  ASYNCIT_CHECK(world >= 1 && self < world);
  ASYNCIT_CHECK(suspicion_timeout > 0.0);
  if (initial_alive.empty()) {
    for (Record& r : members_) r.state = MemberState::kAlive;
  } else {
    for (const std::uint32_t r : initial_alive) {
      ASYNCIT_CHECK(r < world);
      members_[r].state = MemberState::kAlive;
    }
  }
  members_[self_].state = MemberState::kAlive;
  members_[self_].incarnation = incarnation;
  rebuild_live();
}

MemberState MembershipTable::state(std::uint32_t rank) const {
  ASYNCIT_CHECK(rank < members_.size());
  return members_[rank].state;
}

std::uint64_t MembershipTable::incarnation(std::uint32_t rank) const {
  ASYNCIT_CHECK(rank < members_.size());
  return members_[rank].incarnation;
}

void MembershipTable::rebuild_live() {
  live_.clear();
  for (std::uint32_t r = 0; r < members_.size(); ++r)
    if (in_live_view(members_[r].state)) live_.push_back(r);
}

void MembershipTable::enqueue_gossip(const MembershipUpdate& u) {
  for (QueuedUpdate& q : gossip_) {
    if (q.update.rank == u.rank) {
      q.update = u;  // supersede: only the newest claim is worth spreading
      q.remaining = gossip_budget_;
      return;
    }
  }
  gossip_.push_back({u, gossip_budget_});
}

void MembershipTable::transition(std::uint32_t rank, MemberState state,
                                 std::uint64_t incarnation, double now,
                                 bool urgent) {
  Record& rec = members_[rank];
  const MemberState prev = rec.state;
  rec.state = state;
  rec.incarnation = incarnation;
  if (state == MemberState::kSuspect)
    rec.suspect_deadline = now + suspicion_timeout_;
  if (in_live_view(prev) != in_live_view(state)) {
    rebuild_live();
    ++epoch_;
    if (in_live_view(state)) {
      events_.push_back({EventKind::kJoined, rank, incarnation});
      ++stats_.joins_observed;
    } else {
      events_.push_back({EventKind::kDied, rank, incarnation});
      ++stats_.deaths_observed;
    }
  } else if (state == MemberState::kSuspect && prev != MemberState::kSuspect) {
    events_.push_back({EventKind::kSuspected, rank, incarnation});
    ++stats_.suspicions;
  }
  enqueue_gossip({rank, state, incarnation});
  if (urgent) urgent_pending_ = true;
}

bool MembershipTable::apply(const MembershipUpdate& u, double now) {
  if (u.rank >= members_.size() || u.state == MemberState::kUnknown) {
    ++stats_.control_rejected;
    return false;
  }
  Record& rec = members_[u.rank];

  if (u.rank == self_) {
    // Never accept our own demotion: refute by outbidding the claim. The
    // bumped alive supersedes the suspicion/death everywhere it spread —
    // and it is also how a restarted rank reclaims a slot the survivors
    // still hold as dead@i (its stale alive@0 loses, it hears dead@i
    // about itself, and rejoins as alive@i+1).
    if (u.state != MemberState::kAlive && u.incarnation >= rec.incarnation) {
      rec.incarnation = u.incarnation + 1;
      ++stats_.refutations;
      // No queue entry needed: the own alive entry heads every
      // collect_gossip() payload, so the refutation spreads on the next
      // frame to anyone — urgently, via a dedicated broadcast.
      urgent_pending_ = true;
      return true;
    }
    return false;
  }

  // SWIM precedence. A slot never heard from (kUnknown) accepts any
  // first claim — that is what lets a spare's alive@0 join at all.
  bool wins = false;
  if (rec.state == MemberState::kUnknown) {
    wins = true;
  } else {
    switch (u.state) {
      case MemberState::kAlive:
        wins = u.incarnation > rec.incarnation;
        break;
      case MemberState::kSuspect:
        // A suspicion can never resurrect the dead — only a bumped
        // alive (a genuine rejoin) does that.
        wins = rec.state == MemberState::kAlive
                   ? u.incarnation >= rec.incarnation
                   : rec.state == MemberState::kSuspect &&
                         u.incarnation > rec.incarnation;
        break;
      case MemberState::kDead:
        wins = rec.state != MemberState::kDead &&
               u.incarnation >= rec.incarnation;
        break;
      case MemberState::kUnknown:
        break;
    }
  }
  if (!wins || (u.state == rec.state && u.incarnation == rec.incarnation))
    return false;

  const bool urgent = u.state != MemberState::kSuspect;
  transition(u.rank, u.state, u.incarnation, now, urgent);
  return true;
}

void MembershipTable::suspect(std::uint32_t rank, double now) {
  ASYNCIT_CHECK(rank < members_.size() && rank != self_);
  Record& rec = members_[rank];
  if (rec.state != MemberState::kAlive) return;
  transition(rank, MemberState::kSuspect, rec.incarnation, now,
             /*urgent=*/true);
}

void MembershipTable::leave(std::uint32_t rank, double /*now*/) {
  ASYNCIT_CHECK(rank < members_.size() && rank != self_);
  Record& rec = members_[rank];
  if (rec.state == MemberState::kDead) return;
  const bool was_live = in_live_view(rec.state);
  rec.state = MemberState::kDead;
  ++stats_.leaves_observed;
  if (!was_live) return;
  rebuild_live();
  ++epoch_;
  events_.push_back({EventKind::kDied, rank, rec.incarnation});
}

void MembershipTable::tick(double now) {
  for (std::uint32_t r = 0; r < members_.size(); ++r) {
    Record& rec = members_[r];
    if (rec.state == MemberState::kSuspect && now >= rec.suspect_deadline)
      transition(r, MemberState::kDead, rec.incarnation, now,
                 /*urgent=*/true);
  }
}

void MembershipTable::drain_events(std::vector<Event>& out) {
  out.insert(out.end(), events_.begin(), events_.end());
  events_.clear();
}

void MembershipTable::collect_gossip(std::size_t max, std::uint32_t dst,
                                     std::vector<MembershipUpdate>& out) {
  out.clear();
  // Our own entry first: the standing heartbeat that announces joins and
  // keeps refutations flowing even when the queue has drained.
  out.push_back({self_, MemberState::kAlive, members_[self_].incarnation});
  // The destination's entry when we hold it suspect/dead: a live
  // destination must learn it is being demoted, or it can never refute.
  if (dst < members_.size() && dst != self_) {
    const Record& rec = members_[dst];
    if (rec.state == MemberState::kSuspect || rec.state == MemberState::kDead)
      out.push_back({dst, rec.state, rec.incarnation});
  }
  // Then the queue, freshest budget first (newest claims spread fastest).
  std::stable_sort(gossip_.begin(), gossip_.end(),
                   [](const QueuedUpdate& a, const QueuedUpdate& b) {
                     return a.remaining > b.remaining;
                   });
  std::size_t taken = 0;
  for (QueuedUpdate& q : gossip_) {
    if (taken >= max) break;
    if (q.update.rank == self_ || q.update.rank == dst) continue;  // already in
    out.push_back(q.update);
    ASYNCIT_CHECK(q.remaining > 0);
    --q.remaining;
    ++taken;
  }
  std::erase_if(gossip_,
                [](const QueuedUpdate& q) { return q.remaining == 0; });
}

}  // namespace asyncit::membership
