// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run sets a workload up several times (timed as setup.*), runs
// warm-up jobs, then runs jobs until --seconds have passed. A job is one
// call into a public entry point (net::run_message_passing,
// simnet::run_world, train::run_training), timed around that call.
// --trace 0 prints the end-to-end metrics of undecorated jobs; --trace 1
// alternates undecorated and decorated jobs and prints the per-layer
// metrics of the decorated ones plus trace.overhead. The end-to-end times
// are scaled to a nominal host speed by a probe run after every job and
// set-up (see HostProbe); the report prints the raw ones too. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
// Every job's output is checked (see each workload's check); a failed
// check counts the job as failed and the run as incorrect.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "asyncit/net/mp_runtime.hpp"
#include "asyncit/operators/jacobi.hpp"
#include "asyncit/problems/linear_system.hpp"
#include "asyncit/problems/synthetic.hpp"
#include "asyncit/simnet/world.hpp"
#include "asyncit/support/rng.hpp"
#include "asyncit/support/timer.hpp"
#include "asyncit/train/train.hpp"
#include "asyncit/transport/inproc.hpp"
#include "decorators.hpp"

using namespace asyncit;
using perfbench::EndpointCounters;
using perfbench::OpCounters;
using perfbench::Span;
using perfbench::TimedOperator;
using perfbench::TimedTransport;

namespace {

/// Per-layer quantities summed over a run's decorated jobs.
struct LayerSums {
  std::map<std::string, double> v;
  net::DelayHistogram delays;

  double operator[](const std::string& k) const {
    const auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
  void add(const std::string& k, double x) { v[k] += x; }
};

struct JobResult {
  double wall_s = 0.0;    ///< around the entry call
  double fabric_s = 0.0;  ///< transport construction, outside wall_s
  double updates = 0.0;
  double bytes = 0.0;
  std::string failure;    ///< empty: every check passed
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from `seed` and the reference the checks use.
  virtual void setup(std::uint64_t seed, double& problem_s,
                     double& reference_s) = 0;
  virtual int warmups() const = 0;
  /// One job; decorated when `layers` is non-null, which then receives
  /// the job's per-layer terms.
  virtual JobResult run(LayerSums* layers) = 0;
};

/// Per-layer terms every thread workload reports from its endpoints.
void add_transport(const EndpointCounters& ep, LayerSums& L) {
  L.add("tx.send_calls", double(ep.send_calls));
  L.add("tx.send_ns", double(ep.send_ns));
  L.add("tx.receive_calls", double(ep.receive_calls));
  L.add("tx.receive_msgs", double(ep.receive_msgs));
  L.add("tx.receive_ns", double(ep.receive_ns));
  L.add("tx.recycle_ns", double(ep.recycle_ns));
  L.add("tx.wait_ns", double(ep.wait_ns));
}

// ----------------------------------------------------------------- Jacobi

/// The paper's totally asynchronous regime with heavy blocks:
/// net::run_message_passing over the in-process backend, 3 peer threads,
/// no injected latency, oracle stop at tol.
class JacobiAsyncWorkload final : public Workload {
 public:
  static constexpr std::size_t kDim = std::size_t{1} << 18;
  static constexpr std::size_t kBlocks = 24;

  void setup(std::uint64_t seed, double& problem_s,
             double& reference_s) override {
    timed_.reset();
    jacobi_.reset();
    sys_ = {};  // a repeated set-up must not hold two systems at its peak
    WallTimer t;
    Rng rng(seed);
    sys_ = problems::make_diagonally_dominant_system(kDim, 8, 2.0, rng);
    const la::Partition partition = la::Partition::balanced(kDim, kBlocks);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b, partition);
    std::vector<std::uint64_t> nnz(kBlocks);
    const auto row_ptr = sys_.a.row_ptr();
    for (la::BlockId b = 0; b < kBlocks; ++b) {
      const la::BlockRange r = partition.range(b);
      nnz[b] = row_ptr[r.end] - row_ptr[r.begin];
    }
    opt_ = net::MpOptions{};
    opt_.workers = 3;
    opt_.seed = seed;
    opt_.solve.mode = net::Mode::kAsync;
    opt_.solve.tol = 1e-8;
    opt_.solve.max_seconds = 20.0;
    opt_.solve.max_updates = 100000000;
    timed_ = std::make_unique<TimedOperator>(*jacobi_, std::move(nnz),
                                             opt_.workers);
    x0_ = la::zeros(kDim);
    problem_s = t.seconds();

    WallTimer tr;
    opt_.solve.x_star = op::picard_solve(*jacobi_, x0_, 50000, 1e-14);
    reference_s = tr.seconds();
  }

  int warmups() const override { return 4; }

  JobResult run(LayerSums* layers) override {
    JobResult j;
    WallTimer tf;
    transport::InprocTransport fabric(opt_.workers, opt_.chaos.delivery,
                                      opt_.seed);
    std::optional<TimedTransport> decorated;
    if (layers != nullptr) {
      decorated.emplace(fabric, /*clocked=*/true);
      timed_->reset();
    }
    j.fabric_s = tf.seconds();

    WallTimer t;
    const net::MpResult r =
        layers != nullptr
            ? net::run_message_passing(*timed_, x0_, opt_, *decorated)
            : net::run_message_passing(*jacobi_, x0_, opt_, fabric);
    j.wall_s = t.seconds();
    j.updates = static_cast<double>(r.total_updates);
    j.bytes = static_cast<double>(r.bytes_sent_wire);

    const net::SolveOptions& s = opt_.solve;
    if (!(r.final_error >= 0.0 && r.final_error <= 10.0 * s.tol))
      j.failure = "oracle error " + std::to_string(r.final_error) +
                  " outside 10 x tol";
    else if (r.wall_seconds >= s.max_seconds)
      j.failure = "wall budget exhausted";
    else if (r.total_updates >= s.max_updates)
      j.failure = "update budget exhausted";

    if (layers != nullptr) collect(r, *decorated, *layers);
    return j;
  }

 private:
  void collect(const net::MpResult& r, const TimedTransport& tt,
               LayerSums& L) const {
    const OpCounters op = timed_->total();
    EndpointCounters ep;
    double peer_s = 0.0;
    for (std::uint32_t rank = 0; rank < opt_.workers; ++rank) {
      const EndpointCounters& c = tt.timed(rank).counters();
      ep.add(c);
      Span span = c.span;
      span.merge(timed_->slot(rank).span);
      peer_s += span.seconds();
    }
    L.add("op.calls", double(op.calls));
    L.add("op.ns", double(op.ns));
    L.add("op.nnz", double(op.nnz));
    L.add("peer.s", peer_s);
    add_transport(ep, L);
    L.add("tx.frames_sent", double(r.messages_sent));
    L.add("tx.frames_delivered", double(r.messages_delivered));
    L.add("tx.bytes_wire", double(r.bytes_sent_wire));
    L.add("net.self_s", peer_s - 1e-9 * double(op.ns + ep.busy_ns() + ep.wait_ns));
    L.add("net.updates", double(r.total_updates));
    L.add("net.wall_s", r.wall_seconds);
    L.add("net.rounds", double(r.rounds));
    L.add("net.inversions", double(r.inversions_observed));
    L.add("net.stale_filtered", double(r.stale_filtered));
    L.add("net.frames_full", double(r.wire_frames_full));
    L.delays.merge(r.delays);
  }

  problems::LinearSystem sys_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  std::unique_ptr<TimedOperator> timed_;
  net::MpOptions opt_;
  la::Vector x0_;
};

// ---------------------------------------------------------------- simnet

/// The c14 seeded Jacobi world: one block per rank, dense broadcast,
/// single-threaded virtual time. Set-up runs a reference world; every job
/// must replay it exactly (log hash, events, frames, updates, bytes,
/// residual).
class SimnetWorkload final : public Workload {
 public:
  static constexpr std::size_t kWorld = 300;

  void setup(std::uint64_t seed, double& problem_s,
             double& reference_s) override {
    timed_.reset();
    jacobi_.reset();
    sys_ = {};
    WallTimer t;
    Rng rng(seed);
    sys_ = problems::make_diagonally_dominant_system(kWorld, 3, 8.0, rng);
    const la::Partition partition = la::Partition::balanced(kWorld, kWorld);
    jacobi_ = std::make_unique<op::JacobiOperator>(sys_.a, sys_.b, partition);
    std::vector<std::uint64_t> nnz(kWorld);
    const auto row_ptr = sys_.a.row_ptr();
    for (std::size_t b = 0; b < kWorld; ++b) nnz[b] = row_ptr[b + 1] - row_ptr[b];
    timed_ = std::make_unique<TimedOperator>(*jacobi_, std::move(nnz), kWorld);
    o_ = simnet::WorldOptions{};
    o_.mp.workers = kWorld;
    o_.mp.seed = seed;
    o_.mp.solve.tol = 1e-6;
    o_.mp.solve.max_seconds = 300.0;  // virtual
    o_.mp.solve.max_updates = 100000000;
    o_.mp.solve.check_every = 4;
    o_.sim.compute.phase = 1e-3;
    o_.sim.compute.jitter = 0.3;
    o_.sim.topology.latency = 1e-4;
    o_.sim.topology.jitter = 0.5;
    problem_s = t.seconds();

    WallTimer tr;
    o_.mp.solve.x_star = op::picard_solve(*jacobi_, la::zeros(kWorld), 50000, 1e-14);
    reference_ = fingerprint(simnet::run_world(*jacobi_, la::zeros(kWorld), o_));
    reference_s = tr.seconds();
  }

  int warmups() const override { return 1; }

  JobResult run(LayerSums* layers) override {
    JobResult j;
    if (layers != nullptr) timed_->reset();
    WallTimer t;
    const simnet::WorldResult r =
        simnet::run_world(layers != nullptr
                              ? static_cast<const op::BlockOperator&>(*timed_)
                              : *jacobi_,
                          la::zeros(kWorld), o_);
    j.wall_s = t.seconds();
    const Fingerprint f = fingerprint(r);
    j.updates = static_cast<double>(f.updates);
    j.bytes = static_cast<double>(f.bytes);

    if (!r.all_converged || !(r.final_residual < 10.0 * o_.mp.solve.tol))
      j.failure = "world did not converge within 10 x tol";
    else if (r.virtual_seconds >= o_.mp.solve.max_seconds)
      j.failure = "virtual wall budget exhausted";
    else if (!(f == reference_))
      j.failure = "world differs from the reference world of this seed";

    if (layers != nullptr) collect(r, f.bytes, *layers);
    return j;
  }

 private:
  struct Fingerprint {
    std::uint64_t log_hash, events, frames, updates, bytes;
    double residual;
    bool operator==(const Fingerprint&) const = default;
  };

  static Fingerprint fingerprint(const simnet::WorldResult& r) {
    std::uint64_t bytes = 0;
    for (const net::MpResult& rank : r.ranks) bytes += rank.bytes_sent_wire;
    return {r.log_hash, r.events, r.messages_sent, r.total_updates, bytes,
            r.final_residual};
  }

  void collect(const simnet::WorldResult& r, std::uint64_t bytes,
               LayerSums& L) const {
    const OpCounters op = timed_->total();
    L.add("op.calls", double(op.calls));
    L.add("op.ns", double(op.ns));
    L.add("op.nnz", double(op.nnz));
    L.add("peer.s", r.wall_seconds);
    L.add("sim.events", double(r.events));
    L.add("sim.frames", double(r.messages_sent));
    L.add("sim.bytes", double(bytes));
    L.add("sim.virtual_s", r.virtual_seconds);
    L.add("sim.wall_s", r.wall_seconds);
    L.add("sim.self_s", r.wall_seconds - 1e-9 * double(op.ns));
    L.add("tx.frames_sent", double(r.messages_sent));
    L.add("tx.frames_delivered", double(r.messages_delivered));
    L.add("tx.bytes_wire", double(bytes));
    L.add("net.updates", double(r.total_updates));
    L.add("net.wall_s", r.wall_seconds);
    std::uint64_t rounds = ~std::uint64_t{0}, frames_full = 0;
    std::uint64_t inversions = 0, stale_filtered = 0;
    for (const net::MpResult& rank : r.ranks) {
      rounds = std::min(rounds, rank.rounds);
      frames_full += rank.wire_frames_full;
      inversions += rank.inversions_observed;
      stale_filtered += rank.stale_filtered;
      L.delays.merge(rank.delays);
    }
    L.add("net.rounds", double(rounds));
    L.add("net.inversions", double(inversions));
    L.add("net.stale_filtered", double(stale_filtered));
    L.add("net.frames_full", double(frames_full));
  }

  problems::LinearSystem sys_;
  std::unique_ptr<op::JacobiOperator> jacobi_;
  std::unique_ptr<TimedOperator> timed_;
  simnet::WorldOptions o_;
  Fingerprint reference_{};
};

// ------------------------------------------------------------------ PSGD

/// Parameter-server logistic SGD, TAP discipline, 2 workers + server on
/// the in-process backend, fixed epoch budget. The transport always runs
/// through the decorator — clock-free on undecorated jobs — because
/// train::TrainResult carries no byte counter.
class PsgdWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, double& problem_s,
             double& reference_s) override {
    data_.reset();
    WallTimer t;
    problems::LogisticConfig cfg;
    cfg.samples = 4800;
    cfg.features = 256;
    cfg.density = 0.2;
    cfg.separation = 3.0;
    cfg.label_noise = 0.0;
    cfg.ridge = 0.01;
    data_ = std::make_unique<train::Dataset>(
        train::make_synthetic_dataset(cfg, seed));
    opt_ = train::TrainOptions{};
    opt_.workers = 2;
    opt_.seed = seed;
    opt_.sgd.discipline = train::Discipline::kTap;
    // At 0.5 (c13's rate) workers running ahead of a descheduled server
    // pile up stale deltas, and 1-2% of jobs on a contended host ended
    // below 0.95 accuracy (as low as 0.27); 0.1 ends at 1.0.
    opt_.sgd.learning_rate = 0.1;
    opt_.sgd.batch_size = 16;
    opt_.sgd.max_epochs = kEpochs;
    opt_.sgd.max_seconds = 20.0;
    opt_.sgd.target_accuracy = 0.0;  // fixed budget: time training, not start-up
    x0_ = la::zeros(data_->features());
    problem_s = t.seconds();
    reference_s = 0.0;  // the accuracy floor needs no reference solve
  }

  int warmups() const override { return 1; }

  JobResult run(LayerSums* layers) override {
    JobResult j;
    WallTimer tf;
    transport::InprocTransport fabric(opt_.workers + 1, opt_.chaos.delivery,
                                      opt_.seed);
    TimedTransport tt(fabric, /*clocked=*/layers != nullptr);
    j.fabric_s = tf.seconds();

    WallTimer t;
    const train::TrainResult r = train::run_training(*data_, x0_, opt_, tt);
    j.wall_s = t.seconds();
    EndpointCounters ep;
    for (std::uint32_t rank = 0; rank <= opt_.workers; ++rank)
      ep.add(tt.timed(rank).counters());
    j.updates = static_cast<double>(r.deltas_applied);
    j.bytes = static_cast<double>(ep.send_bytes);

    if (!(r.final_accuracy >= 0.95))
      j.failure = "final accuracy " + std::to_string(r.final_accuracy) +
                  " below 0.95";
    else if (r.epochs < kEpochs)
      j.failure = "epoch budget not completed";
    else if (r.wall_seconds >= opt_.sgd.max_seconds)
      j.failure = "wall budget exhausted";

    if (layers != nullptr) {
      LayerSums& L = *layers;
      add_transport(ep, L);
      L.add("tx.frames_sent", double(r.messages_sent));
      L.add("tx.frames_delivered", double(r.messages_delivered));
      L.add("tx.bytes_wire", double(ep.send_bytes));
      for (std::uint32_t rank = 0; rank <= opt_.workers; ++rank) {
        const EndpointCounters& c = tt.timed(rank).counters();
        const double self = c.span.seconds() - 1e-9 * double(c.busy_ns() + c.wait_ns);
        L.add(rank == 0 ? "train.server_self_s" : "train.worker_self_s", self);
        L.add("peer.s", c.span.seconds());
        L.delays.merge(fabric.endpoint(rank).delays());
      }
      L.add("train.deltas_applied", double(r.deltas_applied));
      L.add("train.examples", double(r.examples_processed));
      L.add("train.wall_s", r.wall_seconds);
    }
    return j;
  }

 private:
  static constexpr std::uint64_t kEpochs = 20;
  std::unique_ptr<train::Dataset> data_;
  train::TrainOptions opt_;
  la::Vector x0_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "jacobi_async_inproc") return std::make_unique<JacobiAsyncWorkload>();
  if (name == "jacobi_simnet") return std::make_unique<SimnetWorkload>();
  if (name == "psgd_tap_inproc") return std::make_unique<PsgdWorkload>();
  return nullptr;
}

// ------------------------------------------------------------ host probe

/// Fixed work owned by the benchmark, independent of the library, run
/// between timed intervals to gauge how fast the host serves memory-bound
/// work right now. On a shared VM the identical simnet world took
/// 0.41-0.98 s from one job to the next while a pure-ALU loop held within
/// 3%: the drift is in the caches and memory that other tenants share.
/// The probe touches them the way the workloads do (a dependent random
/// walk over 32 MB, a 4.8 MB binary heap), and an interval's wall scaled
/// by kNominalS / (probe before + probe after) / 2 is the interval at
/// the nominal host speed. A change to the library moves the interval,
/// never the probe.
class HostProbe {
 public:
  /// Roughly the probe's time on an idle host, so scaled times read as
  /// seconds on that host.
  static constexpr double kNominalS = 0.05;

  HostProbe() : cycle_(kCycle), heap_(kHeap) {
    // Sattolo's shuffle: one cycle through every slot, so the walk never
    // settles into a cache-resident loop.
    for (std::size_t i = 0; i < kCycle; ++i) cycle_[i] = static_cast<std::uint32_t>(i);
    std::mt19937_64 g(7);
    for (std::size_t i = kCycle - 1; i > 0; --i) std::swap(cycle_[i], cycle_[g() % i]);
    last_ = run();
  }

  /// Runs the next probe and returns the factor that scales the interval
  /// since the previous probe to the nominal host speed.
  double factor() {
    const double next = run();
    const double around = 0.5 * (last_ + next);
    last_ = next;
    return kNominalS / around;
  }

  const std::vector<double>& samples() const { return samples_; }
  /// Resident bytes the probe holds for the whole run.
  double bytes() const {
    return double(cycle_.capacity() * sizeof(cycle_[0]) +
                  heap_.capacity() * sizeof(heap_[0]));
  }

 private:
  static constexpr std::size_t kCycle = std::size_t{8} << 20;  // 32 MB
  static constexpr std::size_t kSteps = 150000;
  static constexpr std::size_t kHeap = 300000;                 // 4.8 MB
  static constexpr std::size_t kHeapOps = 100000;

  double run() {
    WallTimer t;
    std::uint32_t k = 0;
    for (std::size_t i = 0; i < kSteps; ++i) k = cycle_[k];
    std::mt19937_64 g(k);  // k is fixed: the walk is the same every run
    heap_.clear();
    for (std::size_t i = 0; i < kHeap; ++i) {
      heap_.push_back({static_cast<double>(g() >> 11), i});
      std::push_heap(heap_.begin(), heap_.end());
    }
    for (std::size_t i = 0; i < kHeapOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back().first -= static_cast<double>(g() >> 20);
      std::push_heap(heap_.begin(), heap_.end());
    }
    const double s = t.seconds();
    samples_.push_back(s);
    return s;
  }

  std::vector<std::uint32_t> cycle_;
  std::vector<std::pair<double, std::size_t>> heap_;
  std::vector<double> samples_;
  double last_ = 0.0;
};

// ------------------------------------------------------------- metrics

/// The p-quantile of `v`, interpolated between order statistics.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * double(v.size() - 1);
  const std::size_t k = static_cast<std::size_t>(pos);
  if (k + 1 >= v.size()) return v.back();
  return v[k] + (pos - double(k)) * (v[k + 1] - v[k]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"time_to_target_s", "s"}, {"updates_to_target", "count"},
    {"bytes_to_target", "bytes"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"operators.calls", "count"},         {"operators.busy_s", "s"},
    {"operators.ns_per_call", "ns"},      {"operators.ns_per_nnz", "ns"},
    {"operators.share", "ratio"},
    {"transport.send_calls", "count"},    {"transport.send_busy_s", "s"},
    {"transport.send_ns_per_call", "ns"}, {"transport.receive_calls", "count"},
    {"transport.receive_msgs", "count"},  {"transport.receive_busy_s", "s"},
    {"transport.receive_ns_per_msg", "ns"},
    {"transport.recycle_busy_s", "s"},    {"transport.wait_s", "s"},
    {"transport.frames_sent", "count"},
    {"transport.frames_delivered", "count"},
    {"transport.delay_p50_ms", "ms"},     {"transport.delay_p99_ms", "ms"},
    {"transport.bytes_wire", "bytes"},
    {"net.self_s", "s"},                  {"net.self_ns_per_update", "ns"},
    {"net.updates_per_s", "1/s"},         {"net.frames_per_update", "ratio"},
    {"net.rounds", "count"},              {"net.inversions", "count"},
    {"net.stale_filtered", "count"},      {"net.frames_full", "count"},
    {"simnet.events", "count"},           {"simnet.frames", "count"},
    {"simnet.bytes", "bytes"},            {"simnet.virtual_s", "s"},
    {"simnet.ns_per_event", "ns"},        {"simnet.ns_per_frame", "ns"},
    {"simnet.frames_per_s", "1/s"},       {"simnet.self_s", "s"},
    {"train.deltas_applied", "count"},    {"train.examples_per_s", "1/s"},
    {"train.server_self_s", "s"},         {"train.worker_self_s", "s"},
    {"setup.problem_s", "s"},             {"setup.reference_s", "s"},
    {"setup.fabric_s", "s"},
    {"proc.cpu_user_s", "s"},             {"proc.cpu_sys_s", "s"},
    {"proc.cores_busy", "cores"},         {"proc.vol_ctx_switches", "count"},
    {"proc.invol_ctx_switches", "count"},
    {"host.probe_ms", "ms"},              {"trace.overhead", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

double tv_s(const timeval& t) { return double(t.tv_sec) + 1e-6 * double(t.tv_usec); }

/// getrusage deltas summed over the jobs alone, leaving the probes out.
struct JobUsage {
  double user_s = 0.0, sys_s = 0.0, wall_s = 0.0;
  double vol_cs = 0.0, invol_cs = 0.0;

  void add(const rusage& a, const rusage& b, double wall) {
    user_s += tv_s(b.ru_utime) - tv_s(a.ru_utime);
    sys_s += tv_s(b.ru_stime) - tv_s(a.ru_stime);
    vol_cs += double(b.ru_nvcsw - a.ru_nvcsw);
    invol_cs += double(b.ru_nivcsw - a.ru_nivcsw);
    wall_s += wall;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // ---- set-up, repeated (at least 3 times and 0.5 s, at most 50 times):
  // the median of the probe-scaled set-ups makes setup_s
  HostProbe probe;
  std::vector<double> problem_s, reference_s, fabric_s, scaled_setup;
  WallTimer setup_timer;
  while (problem_s.size() < 3 ||
         (setup_timer.seconds() < 0.5 && problem_s.size() < 50)) {
    double p = 0.0, r = 0.0;
    w->setup(args.seed, p, r);
    problem_s.push_back(p);
    reference_s.push_back(r);
    scaled_setup.push_back((p + r) * probe.factor());
  }

  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const JobResult& j) {
    ++attempted;
    fabric_s.push_back(j.fabric_s);
    if (!j.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s job %llu failed: %s\n",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(attempted),
                   j.failure.c_str());
    }
  };

  // ---- warm-up: page in the multi-MB buffers, fill the pools
  for (int i = 0; i < w->warmups(); ++i) account(w->run(nullptr));

  // ---- timed phase (--trace 1: undecorated and decorated jobs alternate),
  // a host probe after every job
  constexpr std::size_t kMinJobs = 3;
  std::vector<double> wall_u, wall_d, scaled_u, scaled_d, scaled_fabric;
  std::vector<double> updates, bytes;
  LayerSums layers;
  JobUsage usage;
  probe.factor();  // re-anchor after the warm-up
  WallTimer phase;
  for (std::size_t n = 0;
       phase.seconds() < args.seconds || n < kMinJobs; ++n) {
    const bool decorated = args.trace && n % 2 == 1;
    rusage ru0{}, ru1{};
    getrusage(RUSAGE_SELF, &ru0);
    WallTimer t;
    const JobResult j = w->run(decorated ? &layers : nullptr);
    const double job_s = t.seconds();
    getrusage(RUSAGE_SELF, &ru1);
    usage.add(ru0, ru1, job_s);
    const double f = probe.factor();
    account(j);
    (decorated ? wall_d : wall_u).push_back(j.wall_s);
    (decorated ? scaled_d : scaled_u).push_back(j.wall_s * f);
    scaled_fabric.push_back(j.fabric_s * f);
    if (!decorated) {
      updates.push_back(j.updates);
      bytes.push_back(j.bytes);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double jobs = double(wall_u.size() + wall_d.size());

  std::map<std::string, double> m;
  // The lower quartile: on a shared host the slow tail of the job walls
  // is other tenants' doing, and it spreads the medians of whole runs.
  m["time_to_target_s"] = quantile(scaled_u, 0.25);
  m["updates_to_target"] = median(updates);
  m["bytes_to_target"] = median(bytes);
  m["setup_s"] = median(scaled_setup) + median(scaled_fabric);
  m["peak_rss_mb"] = (1024.0 * double(ru.ru_maxrss) - probe.bytes()) / (1 << 20);

  bool correct = failed == 0;
  std::string identity;  // traced thread workloads: the layer-sum line
  if (args.trace) {
    const LayerSums& L = layers;
    const double J = std::max<double>(1.0, double(wall_d.size()));
    const double op_ns = L["op.ns"], op_calls = L["op.calls"];
    const double peer_s = L["peer.s"];
    m["operators.calls"] = op_calls / J;
    m["operators.busy_s"] = 1e-9 * op_ns / J;
    m["operators.ns_per_call"] = ratio(op_ns, op_calls);
    m["operators.ns_per_nnz"] = ratio(op_ns, L["op.nnz"]);
    m["operators.share"] = ratio(1e-9 * op_ns, peer_s);
    m["transport.send_calls"] = L["tx.send_calls"] / J;
    m["transport.send_busy_s"] = 1e-9 * L["tx.send_ns"] / J;
    m["transport.send_ns_per_call"] = ratio(L["tx.send_ns"], L["tx.send_calls"]);
    m["transport.receive_calls"] = L["tx.receive_calls"] / J;
    m["transport.receive_msgs"] = L["tx.receive_msgs"] / J;
    m["transport.receive_busy_s"] = 1e-9 * L["tx.receive_ns"] / J;
    m["transport.receive_ns_per_msg"] = ratio(L["tx.receive_ns"], L["tx.receive_msgs"]);
    m["transport.recycle_busy_s"] = 1e-9 * L["tx.recycle_ns"] / J;
    m["transport.wait_s"] = 1e-9 * L["tx.wait_ns"] / J;
    m["transport.frames_sent"] = L["tx.frames_sent"] / J;
    m["transport.frames_delivered"] = L["tx.frames_delivered"] / J;
    m["transport.delay_p50_ms"] = L.delays.count() ? 1e3 * L.delays.quantile(0.5) : 0.0;
    m["transport.delay_p99_ms"] = L.delays.count() ? 1e3 * L.delays.quantile(0.99) : 0.0;
    m["transport.bytes_wire"] = L["tx.bytes_wire"] / J;
    m["net.self_s"] = L["net.self_s"] / J;
    m["net.self_ns_per_update"] = ratio(1e9 * L["net.self_s"], L["net.updates"]);
    m["net.updates_per_s"] = ratio(L["net.updates"], L["net.wall_s"]);
    m["net.frames_per_update"] = ratio(L["tx.frames_sent"], L["net.updates"]);
    m["net.rounds"] = L["net.rounds"] / J;
    m["net.inversions"] = L["net.inversions"] / J;
    m["net.stale_filtered"] = L["net.stale_filtered"] / J;
    m["net.frames_full"] = L["net.frames_full"] / J;
    m["simnet.events"] = L["sim.events"] / J;
    m["simnet.frames"] = L["sim.frames"] / J;
    m["simnet.bytes"] = L["sim.bytes"] / J;
    m["simnet.virtual_s"] = L["sim.virtual_s"] / J;
    m["simnet.ns_per_event"] = ratio(1e9 * L["sim.wall_s"], L["sim.events"]);
    m["simnet.ns_per_frame"] = ratio(1e9 * L["sim.wall_s"], L["sim.frames"]);
    m["simnet.frames_per_s"] = ratio(L["sim.frames"], L["sim.wall_s"]);
    m["simnet.self_s"] = L["sim.self_s"] / J;
    m["train.deltas_applied"] = L["train.deltas_applied"] / J;
    m["train.examples_per_s"] = ratio(L["train.examples"], L["train.wall_s"]);
    m["train.server_self_s"] = L["train.server_self_s"] / J;
    m["train.worker_self_s"] = L["train.worker_self_s"] / J;
    m["setup.problem_s"] = median(problem_s);
    m["setup.reference_s"] = median(reference_s);
    m["setup.fabric_s"] = median(fabric_s);
    m["proc.cpu_user_s"] = usage.user_s / jobs;
    m["proc.cpu_sys_s"] = usage.sys_s / jobs;
    m["proc.cores_busy"] = ratio(usage.user_s + usage.sys_s, usage.wall_s);
    m["proc.vol_ctx_switches"] = usage.vol_cs / jobs;
    m["proc.invol_ctx_switches"] = usage.invol_cs / jobs;
    m["host.probe_ms"] = 1e3 * median(probe.samples());
    m["trace.overhead"] =
        ratio(quantile(scaled_d, 0.25), quantile(scaled_u, 0.25)) - 1.0;

    // The layer terms of a thread workload partition its peer-thread
    // time; a negative remainder means the decorators double-count.
    const double self = L["net.self_s"] + L["train.server_self_s"] + L["train.worker_self_s"];
    if (L["tx.send_calls"] > 0.0) {
      const double busy = L["tx.send_ns"] + L["tx.receive_ns"] + L["tx.recycle_ns"];
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "  peer-thread time per job %.6g s = operators %.6g + "
                    "transport busy %.6g + wait %.6g + self %.6g\n",
                    peer_s / J, 1e-9 * op_ns / J, 1e-9 * busy / J,
                    1e-9 * L["tx.wait_ns"] / J, self / J);
      identity = buf;
    }
    if (self < -1e-6 * peer_s) {
      std::fprintf(stderr, "perfbench: layer terms exceed peer-thread time\n");
      correct = false;
    }
  }

  // ---- human-readable report, then the JSON line
  std::printf("workload %s  seed %llu  jobs %zu undecorated + %zu decorated  "
              "failed %llu / %llu (fail_fraction %.4f)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              wall_u.size(), wall_d.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              ratio(double(failed), double(attempted)));
  std::printf("%s", identity.c_str());
  std::printf("  set-up x%zu (raw): problem median %.6g s  reference median "
              "%.6g s\n",
              problem_s.size(), median(problem_s), median(reference_s));
  std::printf("  host probe: median %.6g s over %zu probes (nominal %.6g s)\n",
              median(probe.samples()), probe.samples().size(),
              HostProbe::kNominalS);
  for (const auto& [label, v] : {std::pair{"raw", &wall_u}, std::pair{"scaled", &scaled_u}})
    std::printf("  undecorated job wall, %-6s: min %.6g  q1 %.6g  median %.6g  "
                "q3 %.6g  max %.6g s\n",
                label, quantile(*v, 0.0), quantile(*v, 0.25), median(*v),
                quantile(*v, 0.75), quantile(*v, 1.0));
  const auto& table = args.trace ? std::span<const Metric>(kPerLayer)
                                 : std::span<const Metric>(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : table) {
    const double v = m[metric.name];
    std::printf("  %-32s %.6g %s\n", metric.name, v, metric.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", metric.name, v, metric.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
