// SWIM-style membership: who is in the computation RIGHT NOW.
//
// net::run_node used to freeze the world in the launch config: every rank
// that would ever participate had to be alive at rendezvous and stay alive
// to the end. The paper's totally asynchronous convergence theory (Thm. 1
// regime: unbounded delays, out-of-order messages) demands much less — a
// component only has to be updated *eventually* by *someone* — so the set
// of workers is allowed to change mid-solve. membership/ supplies the
// machinery: a failure detector and gossip-disseminated membership table
// in the style of SWIM (Das, Gupta, Motivala, DSN 2002), riding the
// existing control-frame path of the transport layer (MsgKind::kPing /
// kAck / kPingReq / kMembershipUpdate next to kStop).
//
// This header holds the DETERMINISTIC core: the per-member state machine
// and the piggyback gossip buffer. It owns no clock and no I/O — every
// input carries an explicit `now`, so the suspect→dead life cycle and the
// incarnation precedence rules are unit-testable without threads or
// sockets (tests/membership_test.cpp). The probing protocol that feeds it
// lives in membership/swim.hpp.
//
// State machine (per world slot, incarnation numbers break ties exactly as
// in SWIM):
//
//   kUnknown  configured slot that has never been heard from (a spare
//             rank the launcher may start later). Not part of the live
//             view; any update about it applies.
//   kAlive    member of the live view. alive@i overrides alive/suspect@j
//             iff i > j and dead@j iff i > j (that is how a dead rank —
//             or a never-started spare — (re)joins).
//   kSuspect  probed and unresponsive, grace period running. suspect@i
//             overrides alive@j iff i >= j and suspect@j iff i > j. A
//             suspicion about THIS rank is refuted by bumping the own
//             incarnation past it and gossiping the new alive.
//   kDead     suspicion expired (or a kStop announced a deliberate
//             leave — counted as a leave, not a death, and not
//             gossiped: the leaver's kStop reaches every live member
//             itself). dead@i overrides alive/suspect@j iff i >= j.
//
// Every local state change is queued for piggyback dissemination with a
// bounded retransmission budget (O(log world) sends per update), SWIM's
// infection-style broadcast: updates ride the control frames that flow
// anyway instead of needing a broadcast primitive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace asyncit::membership {

enum class MemberState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
  kUnknown = 3,  ///< never heard from; not a wire state (local only)
};

/// The gossip unit: one rank's disseminated state. Travels 3 doubles wide
/// in control-frame payloads (see swim.hpp for the encoding).
struct MembershipUpdate {
  std::uint32_t rank = 0;
  MemberState state = MemberState::kAlive;
  std::uint64_t incarnation = 0;
};

/// What the runtime reacts to (block re-assignment, snapshot sends).
enum class EventKind : std::uint8_t {
  kJoined,     ///< entered the live view (first join or rejoin)
  kSuspected,  ///< grace period started (still in the live view)
  kDied,       ///< left the live view (suspicion expired or kStop leave)
};

struct Event {
  EventKind kind;
  std::uint32_t rank;
  std::uint64_t incarnation;
};

/// Knobs for the table AND the swim detector (one struct so MpOptions
/// carries a single `membership` field).
struct Options {
  bool enabled = false;

  /// Probe cadence: one direct ping per period, round-robin over a
  /// shuffled order of the other live members (SWIM's randomized
  /// round-robin gives deterministic worst-case detection time).
  double ping_period = 0.05;
  /// No direct ack within this window -> indirect probe through
  /// ping_req_fanout helpers; no ack at all within 2x -> suspect.
  double ping_timeout = 0.15;
  /// Suspect grace period before the slot is declared dead. This is the
  /// false-positive knob: chaos-injected delay below this bound must
  /// never kill anyone (pinned by membership_test).
  double suspicion_timeout = 1.0;
  std::size_t ping_req_fanout = 2;
  /// Max piggybacked gossip entries per control frame (the own entry is
  /// always included on top).
  std::size_t max_piggyback = 6;
  /// Probe members even when their data traffic already proves liveness
  /// (the full SWIM cadence). Default off: every received value frame is
  /// a free heartbeat, so the detector pings only QUIET links — a member
  /// goes unprobed exactly while it demonstrably does not need probing.
  /// Tests measuring detector behaviour under load turn this on.
  bool probe_busy_members = false;

  /// Ranks present at launch (the startup rendezvous set). Empty = every
  /// configured slot. A slot not listed starts kUnknown and may join
  /// later (scripts/launch_cluster.py --churn marks such spares `late`).
  std::vector<std::uint32_t> initial_alive;
};

/// Detector/dissemination counters, merged into net::MpResult so
/// launch_cluster.py can aggregate and assert on them (one schema — see
/// the asyncit-node/1 JSON in tools/asyncit_node.cpp).
struct Stats {
  std::uint64_t pings_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t ping_reqs_sent = 0;
  std::uint64_t gossip_frames_sent = 0;  ///< dedicated kMembershipUpdate
  std::uint64_t suspicions = 0;          ///< local + gossip-learned
  std::uint64_t deaths_observed = 0;     ///< suspicion expiries + gossip
  std::uint64_t leaves_observed = 0;     ///< kStop leaves seen directly
  std::uint64_t joins_observed = 0;
  std::uint64_t refutations = 0;         ///< own incarnation bumps
  std::uint64_t control_rejected = 0;    ///< malformed control frames

  Stats& operator+=(const Stats& o) {
    pings_sent += o.pings_sent;
    acks_sent += o.acks_sent;
    acks_received += o.acks_received;
    ping_reqs_sent += o.ping_reqs_sent;
    gossip_frames_sent += o.gossip_frames_sent;
    suspicions += o.suspicions;
    deaths_observed += o.deaths_observed;
    leaves_observed += o.leaves_observed;
    joins_observed += o.joins_observed;
    refutations += o.refutations;
    control_rejected += o.control_rejected;
    return *this;
  }
};

class MembershipTable {
 public:
  /// `self` starts kAlive at incarnation `incarnation`; `initial_alive`
  /// (empty = all) start kAlive at 0; every other slot starts kUnknown.
  /// `suspicion_timeout` is the suspect grace period (Options field).
  MembershipTable(std::uint32_t self, std::size_t world,
                  double suspicion_timeout,
                  const std::vector<std::uint32_t>& initial_alive,
                  std::uint64_t incarnation = 0);

  std::uint32_t self() const { return self_; }
  std::size_t world() const { return members_.size(); }
  MemberState state(std::uint32_t rank) const;
  std::uint64_t incarnation(std::uint32_t rank) const;

  /// Applies one received gossip update under the SWIM precedence rules.
  /// An update claiming THIS rank suspect/dead is refuted instead:
  /// the own incarnation jumps past it and the refutation is queued for
  /// gossip. Returns true when any state changed.
  bool apply(const MembershipUpdate& u, double now);

  /// Local failure-detector verdict: start (or keep) the suspicion
  /// grace period for `rank`. No-op unless the slot is currently alive.
  void suspect(std::uint32_t rank, double now);

  /// Deliberate leave (a kStop control frame): straight to dead at the
  /// member's current incarnation, counted in leaves_observed. Not
  /// gossiped — a gossiped leave would reach the others as a death.
  void leave(std::uint32_t rank, double now);

  /// Expires overdue suspicions to dead. Call often (cheap when idle).
  void tick(double now);

  /// Sorted live view (kAlive + kSuspect — a suspect still owns its
  /// blocks until the grace period expires). Always contains self.
  const std::vector<std::uint32_t>& live_ranks() const { return live_; }
  /// Bumped whenever the live view changes — the runtime re-runs block
  /// assignment when it observes a new epoch.
  std::uint64_t epoch() const { return epoch_; }

  /// Moves accumulated events into `out` (appended).
  void drain_events(std::vector<Event>& out);

  /// Fills `out` (cleared first) with this frame's piggyback: the own
  /// alive entry, the entry about `dst` when it is suspect/dead (so a
  /// suspected-but-alive destination learns it must refute), then up to
  /// `max` queued updates by remaining retransmission budget.
  void collect_gossip(std::size_t max, std::uint32_t dst,
                      std::vector<MembershipUpdate>& out);

  /// True when a state change since the last collect deserves a
  /// dedicated kMembershipUpdate broadcast (death/join/refutation —
  /// piggyback alone would disseminate too slowly for re-assignment).
  bool urgent_pending() const { return urgent_pending_; }
  void clear_urgent() { urgent_pending_ = false; }

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  struct Record {
    MemberState state = MemberState::kUnknown;
    std::uint64_t incarnation = 0;
    double suspect_deadline = 0.0;  ///< valid while kSuspect
  };

  /// Commits a state transition: record, live view, events, gossip queue.
  void transition(std::uint32_t rank, MemberState state,
                  std::uint64_t incarnation, double now, bool urgent);
  void rebuild_live();
  void enqueue_gossip(const MembershipUpdate& u);

  std::uint32_t self_;
  double suspicion_timeout_;
  std::vector<Record> members_;
  std::vector<std::uint32_t> live_;  ///< sorted, includes self
  std::uint64_t epoch_ = 0;
  std::vector<Event> events_;

  /// Piggyback queue: updates still owed transmissions. Replaced when a
  /// newer update about the same rank supersedes them.
  struct QueuedUpdate {
    MembershipUpdate update;
    std::size_t remaining;
  };
  std::vector<QueuedUpdate> gossip_;
  std::size_t gossip_budget_;  ///< transmissions per update (~3 log2 w)
  bool urgent_pending_ = false;

  Stats stats_;
};

}  // namespace asyncit::membership
