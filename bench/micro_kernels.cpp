// PERF — microbenchmarks for the compute substrates, run through the
// shared bench harness (bench/harness/): optimized hot-path kernels vs the
// naive reference loops they replaced (linalg/kernels_ref.hpp), plus the
// shared-memory stores.
//
// Each kernel scenario records
//   deterministic: problem shape (n, nnz, blocks) and the optimized-vs-
//                  reference parity gap (max |opt − ref|), which is a pure
//                  function of the seeded inputs — hard-checked by CI
//                  against bench/baselines/kernels.json;
//   measured:      per-call timings (median/p90 over repetitions) for the
//                  reference and optimized variants plus their ratio
//                  `speedup_median` — tracked warn-only (machines differ).
//
// The three headline scenarios are the ones the asynchronous executors
// hammer per update: SpMV (spmv_*), the fused Jacobi block update
// (jacobi_block), and the fused block-residual sweep used by every
// displacement stopping rule (block_residual). train_eval times the PSGD
// server's full-train evaluation (one margin pass) against the two-sweep
// shape it replaced, with loss and accuracy parity hard-gated at 0.
// csr_build times CSR construction (CsrMatrix::from_rows and
// from_triplets) against the global triplet sort it replaced, with bit
// parity of both builds hard-gated. picard_reference times the reference
// solve (op::picard_solve, whose sweep runs on several threads) against
// the serial loop it replaced, with its sweep count and the bits of its
// iterate hard-gated. gather_probe sweeps that system's rows with their
// columns as generated, folded into 256 KB of x, and sequential, to tell
// a latency bound on x from a bandwidth bound.
//
// The *_levels scenarios additionally walk the SIMD dispatch ladder
// (linalg/simd_dispatch.hpp): each supported level is forced in turn and
// timed against the scalar level on the same inputs, with the level-vs-
// scalar parity gap recorded as a deterministic field (hard-gated where
// the level exists — the per-level checks in bench/baselines/kernels.json
// are `optional` because which levels exist depends on the host). The
// speedup_<level> ratios are wall-clock and therefore warn-only, but the
// trend history (check_bench --history) keeps them regression-gated run
// over run on the same runner.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "asyncit/asyncit.hpp"
#include "asyncit/linalg/kernels.hpp"
#include "asyncit/linalg/kernels_ref.hpp"
#include "asyncit/linalg/simd_dispatch.hpp"
#include "asyncit/runtime/shared_iterate.hpp"
#include "asyncit/train/dataset.hpp"
#include "asyncit/train/sgd.hpp"
#include "harness/bench_harness.hpp"

using namespace asyncit;

namespace {

la::Vector seeded_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Vector x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  return la::dist_inf(a, b);
}

/// Pre-PR max_block_residual: fresh scratch vector per call, resized per
/// block, naive apply + two-pass distance (the shape rt::DisplacementStop
/// and the net:: monitor used to poll every confirmation).
double block_residual_ref(const op::BlockOperator& op,
                          const la::CsrMatrix& a,
                          std::span<const double> rhs,
                          std::span<const double> diag,
                          std::span<const double> x) {
  const la::Partition& partition = op.partition();
  la::Vector fb;  // allocated per call — the pre-PR behaviour
  double worst = 0.0;
  for (la::BlockId b = 0; b < op.num_blocks(); ++b) {
    const la::BlockRange r = partition.range(b);
    fb.resize(r.size());
    la::ref::jacobi_rows(a.row_ptr(), a.col_idx(), a.values(), rhs, diag,
                         r.begin, r.end, x, fb);
    worst = std::max(
        worst, la::ref::sq_dist(fb.data(), x.data() + r.begin, r.size()));
  }
  return std::sqrt(worst);
}

/// The two-sweep evaluation dataset_eval replaced: a row_dot pass for
/// the loss, then a second full pass over the design for the accuracy.
train::Eval two_pass_eval(const train::Dataset& data,
                          std::span<const double> x) {
  const std::size_t m = data.samples();
  double sum = 0.0;
  for (std::size_t h = 0; h < m; ++h) {
    const double t =
        -static_cast<double>(data.labels[h]) * data.design.row_dot(h, x);
    sum += t > 0.0 ? t + std::log1p(std::exp(-t)) : std::log1p(std::exp(t));
  }
  double sq = 0.0;
  for (const double xi : x) sq += xi * xi;
  std::size_t correct = 0;
  for (std::size_t h = 0; h < m; ++h)
    correct += (data.design.row_dot(h, x) >= 0.0 ? 1 : -1) == data.labels[h];
  return {sum / static_cast<double>(m) + 0.5 * data.ridge * sq,
          static_cast<double>(correct) / static_cast<double>(m)};
}

/// The CSR arrays of the triplet build before the row builder: one
/// global sort by (row, col), then each run of equal keys summed from 0.0.
struct GlobalSortCsr {
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;
};

GlobalSortCsr global_sort_build(std::size_t rows,
                                std::vector<la::Triplet> t) {
  std::sort(t.begin(), t.end(), [](const la::Triplet& a,
                                   const la::Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  GlobalSortCsr m;
  m.row_ptr.assign(rows + 1, 0);
  m.col_idx.reserve(t.size());
  m.values.reserve(t.size());
  for (std::size_t i = 0; i < t.size();) {
    const la::Triplet& first = t[i];
    double v = 0.0;
    for (; i < t.size() && t[i].row == first.row && t[i].col == first.col;
         ++i)
      v += t[i].value;
    m.col_idx.push_back(first.col);
    m.values.push_back(v);
    ++m.row_ptr[first.row + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr[r + 1] += m.row_ptr[r];
  return m;
}

/// Entries whose column or value bits differ from the reference, or all
/// of them when the row offsets differ; 0 is bit parity.
std::size_t csr_mismatches(const la::CsrMatrix& a, const GlobalSortCsr& ref) {
  if (!std::ranges::equal(a.row_ptr(), ref.row_ptr))
    return std::max(a.nnz(), ref.values.size());
  std::size_t diff = 0;
  for (std::size_t k = 0; k < a.nnz(); ++k)
    diff += a.col_idx()[k] != ref.col_idx[k] ||
            std::bit_cast<std::uint64_t>(a.values()[k]) !=
                std::bit_cast<std::uint64_t>(ref.values[k]);
  return diff;
}

/// The loop picard_solve ran before its sweep was split across threads:
/// one full application, the residual over both full vectors, a swap.
la::Vector serial_picard(const op::BlockOperator& op, la::Vector x,
                         std::size_t max_iters, double tol,
                         op::Workspace& ws) {
  op::Scratch y(ws, x.size());
  for (std::size_t it = 0; it < max_iters; ++it) {
    op.apply(x, y, ws);
    const double r = la::dist_inf(x, y.span());
    x.swap(y.vec());
    if (r < tol) break;
  }
  return x;
}

/// Entries whose bits differ, or all of them when the lengths differ; 0
/// is bit parity.
std::size_t bits_differ(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]);
  return diff;
}

/// Forwards to `inner` and records, per block, its calls and the thread
/// that made the last one. Each block is written by one thread per sweep.
class BlockThreads final : public op::BlockOperator {
 public:
  explicit BlockThreads(const op::BlockOperator& inner)
      : inner_(inner),
        calls_(inner.num_blocks()),
        thread_(inner.num_blocks()) {}
  const la::Partition& partition() const override {
    return inner_.partition();
  }
  using BlockOperator::apply_block;
  void apply_block(la::BlockId b, std::span<const double> x,
                   std::span<double> out, op::Workspace& ws) const override {
    ++calls_[b];
    thread_[b] = std::this_thread::get_id();
    inner_.apply_block(b, x, out, ws);
  }
  std::string name() const override { return inner_.name(); }

  /// Sweeps, if every block ran equally often; 0 otherwise.
  std::size_t sweeps() const {
    return std::ranges::all_of(calls_, [&](std::size_t c) {
             return c == calls_[0];
           })
               ? calls_[0]
               : 0;
  }
  std::size_t threads() const {
    std::vector<std::thread::id> ids = thread_;
    std::ranges::sort(ids);
    return static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
  }

 private:
  const op::BlockOperator& inner_;
  mutable std::vector<std::size_t> calls_;
  mutable std::vector<std::thread::id> thread_;
};

void spmv_scenario(bench::Report& report, const std::string& name,
                   std::size_t n, std::size_t off_diag, std::uint64_t seed,
                   std::size_t inner) {
  Rng rng(seed);
  auto sys = problems::make_diagonally_dominant_system(n, off_diag, 2.0, rng);
  const la::Vector x = seeded_vector(n, seed + 1);
  la::Vector y_opt(n), y_ref(n);

  sys.a.matvec(x, y_opt);
  la::ref::csr_matvec(sys.a.row_ptr(), sys.a.col_idx(), sys.a.values(), x,
                      y_ref);

  const auto t_ref = bench::measure(3, 21, inner, [&] {
    la::ref::csr_matvec(sys.a.row_ptr(), sys.a.col_idx(), sys.a.values(), x,
                        y_ref);
  });
  const auto t_opt =
      bench::measure(3, 21, inner, [&] { sys.a.matvec(x, y_opt); });

  report.scenario(name)
      .det("n", n)
      .det("nnz", sys.a.nnz())
      .det("parity_max_abs_diff", max_abs_diff(y_opt, y_ref))
      .timing("ref", t_ref)
      .timing("opt", t_opt)
      .metric("speedup_median", t_ref.median_s / t_opt.median_s);
  std::printf("%-16s ref %8.1f ns  opt %8.1f ns  speedup %.2fx\n",
              name.c_str(), t_ref.median_s * 1e9, t_opt.median_s * 1e9,
              t_ref.median_s / t_opt.median_s);
}

}  // namespace

int main() {
  std::printf("== micro_kernels: optimized hot-path kernels vs naive "
              "reference ==\n\n");
  bench::Report report("kernels");

  // ---------------- SpMV: moderately sparse and denser rows ------------
  spmv_scenario(report, "spmv_n4096_nnz8", 4096, 8, 11, 50);
  spmv_scenario(report, "spmv_n4096_nnz16", 4096, 16, 12, 50);

  // ---------------- dense dot / axpy ----------------------------------
  {
    const std::size_t n = 4096;
    const la::Vector a = seeded_vector(n, 21), b = seeded_vector(n, 22);
    la::Vector y(n, 0.0);
    volatile double sink = 0.0;
    const auto t_ref = bench::measure(3, 21, 200, [&] {
      sink = la::ref::dot(a.data(), b.data(), n);
    });
    const auto t_opt = bench::measure(3, 21, 200, [&] {
      sink = la::kern::dot(a.data(), b.data(), n);
    });
    (void)sink;
    report.scenario("dot_n4096")
        .det("n", n)
        .det("parity_max_abs_diff",
             std::abs(la::kern::dot(a.data(), b.data(), n) -
                      la::ref::dot(a.data(), b.data(), n)))
        .timing("ref", t_ref)
        .timing("opt", t_opt)
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s ref %8.1f ns  opt %8.1f ns  speedup %.2fx\n",
                "dot_n4096", t_ref.median_s * 1e9, t_opt.median_s * 1e9,
                t_ref.median_s / t_opt.median_s);
  }

  // ---------------- fused Jacobi block update -------------------------
  {
    const std::size_t n = 1024, blocks = 64;
    Rng rng(31);
    auto sys = problems::make_diagonally_dominant_system(n, 16, 2.0, rng);
    op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(n, blocks));
    const la::Vector diag = sys.a.diagonal();
    const la::Vector x = seeded_vector(n, 32);
    la::Vector out_opt(n / blocks), out_ref(n / blocks);
    op::Workspace ws;

    double parity = 0.0;
    for (la::BlockId b = 0; b < blocks; ++b) {
      const la::BlockRange r = jac.partition().range(b);
      jac.apply_block(b, x, out_opt, ws);
      la::ref::jacobi_rows(sys.a.row_ptr(), sys.a.col_idx(), sys.a.values(),
                           sys.b, diag, r.begin, r.end, x, out_ref);
      parity = std::max(parity, max_abs_diff(out_opt, out_ref));
    }

    la::BlockId b_ref = 0, b_opt = 0;
    const auto t_ref = bench::measure(3, 21, 400, [&] {
      const la::BlockRange r = jac.partition().range(b_ref);
      la::ref::jacobi_rows(sys.a.row_ptr(), sys.a.col_idx(), sys.a.values(),
                           sys.b, diag, r.begin, r.end, x, out_ref);
      b_ref = (b_ref + 1) % blocks;
    });
    const auto t_opt = bench::measure(3, 21, 400, [&] {
      jac.apply_block(b_opt, x, out_opt, ws);
      b_opt = (b_opt + 1) % blocks;
    });
    report.scenario("jacobi_block")
        .det("n", n)
        .det("blocks", blocks)
        .det("nnz", sys.a.nnz())
        .det("parity_max_abs_diff", parity)
        .timing("ref", t_ref)
        .timing("opt", t_opt)
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s ref %8.1f ns  opt %8.1f ns  speedup %.2fx\n",
                "jacobi_block", t_ref.median_s * 1e9, t_opt.median_s * 1e9,
                t_ref.median_s / t_opt.median_s);
  }

  // ---------------- fused block-residual sweep ------------------------
  // Full-dimension sweep at the size the stopping rules scan.
  {
    const std::size_t n = 4096, blocks = 64;
    Rng rng(41);
    auto sys = problems::make_diagonally_dominant_system(n, 16, 2.0, rng);
    op::JacobiOperator jac(sys.a, sys.b, la::Partition::balanced(n, blocks));
    const la::Vector diag = sys.a.diagonal();
    const la::Vector x = seeded_vector(n, 42);
    op::Workspace ws;
    volatile double sink = 0.0;

    const double res_opt = op::max_block_residual(jac, x, ws);
    const double res_ref = block_residual_ref(jac, sys.a, sys.b, diag, x);

    const auto t_ref = bench::measure(3, 21, 20, [&] {
      sink = block_residual_ref(jac, sys.a, sys.b, diag, x);
    });
    const auto t_opt = bench::measure(3, 21, 20, [&] {
      sink = op::max_block_residual(jac, x, ws);
    });
    (void)sink;
    report.scenario("block_residual")
        .det("n", n)
        .det("blocks", blocks)
        .det("parity_max_abs_diff", std::abs(res_opt - res_ref))
        .timing("ref", t_ref)
        .timing("opt", t_opt)
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s ref %8.1f ns  opt %8.1f ns  speedup %.2fx\n",
                "block_residual", t_ref.median_s * 1e9, t_opt.median_s * 1e9,
                t_ref.median_s / t_opt.median_s);
  }

  // ---------------- backward-forward block: workspace vs per-call alloc
  {
    const std::size_t n = 1024, blocks = 64;
    Rng rng(51);
    auto f = problems::make_separable_quadratic(n, 1.0, 8.0, rng);
    auto g = op::make_l1_prox(0.1);
    op::BackwardForwardOperator bf(*f, *g, f->suggested_step(),
                                   la::Partition::balanced(n, blocks));
    const la::Vector x = seeded_vector(n, 52);
    la::Vector out(n / blocks), out_ref(n / blocks);
    op::Workspace ws;

    // Pre-PR shape: fresh full-dimension prox scratch on every block call.
    auto bf_block_alloc = [&](la::BlockId b, std::span<double> o) {
      la::Vector z(n);
      g->apply(x, bf.gamma(), z);
      const la::BlockRange r = bf.partition().range(b);
      f->partial_block(r.begin, r.end, z, o);
      for (std::size_t c = r.begin; c < r.end; ++c)
        o[c - r.begin] = z[c] - bf.gamma() * o[c - r.begin];
    };

    double parity = 0.0;
    for (la::BlockId b = 0; b < blocks; ++b) {
      bf.apply_block(b, x, out, ws);
      bf_block_alloc(b, out_ref);
      parity = std::max(parity, max_abs_diff(out, out_ref));
    }

    la::BlockId b_ref = 0, b_opt = 0;
    const auto t_ref = bench::measure(3, 21, 200, [&] {
      bf_block_alloc(b_ref, out_ref);
      b_ref = (b_ref + 1) % blocks;
    });
    const auto t_opt = bench::measure(3, 21, 200, [&] {
      bf.apply_block(b_opt, x, out, ws);
      b_opt = (b_opt + 1) % blocks;
    });
    report.scenario("bf_block")
        .det("n", n)
        .det("blocks", blocks)
        .det("parity_max_abs_diff", parity)
        .timing("ref", t_ref)
        .timing("opt", t_opt)
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s ref %8.1f ns  opt %8.1f ns  speedup %.2fx\n",
                "bf_block", t_ref.median_s * 1e9, t_opt.median_s * 1e9,
                t_ref.median_s / t_opt.median_s);
  }

  // ---------------- PSGD server evaluation: one margin pass vs two -----
  // The psgd_tap_inproc benchmark dataset. dataset_eval computes every
  // margin once; the reference sweeps the design for the loss and again
  // for the accuracy. Both must give the same bits.
  {
    problems::LogisticConfig cfg;
    cfg.samples = 4800;
    cfg.features = 256;
    cfg.density = 0.2;
    cfg.separation = 3.0;
    cfg.label_noise = 0.0;
    cfg.ridge = 0.01;
    const train::Dataset data = train::make_synthetic_dataset(cfg, 1);
    const la::Vector x = seeded_vector(data.features(), 71);
    la::Vector margins(data.samples());

    const train::Eval fused = train::dataset_eval(data, x, margins);
    const train::Eval ref = two_pass_eval(data, x);

    volatile double sink = 0.0;
    const auto t_ref = bench::measure(
        2, 21, 4, [&] { sink = two_pass_eval(data, x).loss; });
    const auto t_opt = bench::measure(
        2, 21, 4, [&] { sink = train::dataset_eval(data, x, margins).loss; });
    (void)sink;
    report.scenario("train_eval")
        .det("samples", data.samples())
        .det("nnz", data.design.nnz())
        .det("parity_loss", std::abs(fused.loss - ref.loss))
        .det("parity_accuracy", std::abs(fused.accuracy - ref.accuracy))
        .timing("two_pass", t_ref)
        .timing("fused", t_opt)
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s two-pass %7.1f us  fused %7.1f us  speedup %.2fx\n",
                "train_eval", t_ref.median_s * 1e6, t_opt.median_s * 1e6,
                t_ref.median_s / t_opt.median_s);
  }

  // ---------------- CSR construction: row builder vs global sort -------
  // A 2^16-row system with 8 random off-diagonal columns per row and the
  // diagonal last, the order make_diagonally_dominant_system emits. Built
  // through from_rows (the generator's path) and from_triplets, against
  // the global sort the triplet builder used to run. Every timed call
  // copies its input, since each build consumes it.
  {
    const std::size_t n = std::size_t{1} << 16, k = 8;
    Rng rng(81);
    std::vector<la::Triplet> triplets;
    std::vector<std::size_t> row_ptr(n + 1);
    std::vector<std::uint32_t> cols;
    std::vector<double> vals;
    for (std::uint32_t r = 0; r < n; ++r) {
      row_ptr[r] = triplets.size();
      for (std::size_t j = 0; j < k; ++j)
        triplets.push_back({r, static_cast<std::uint32_t>(rng.uniform_index(n)),
                            rng.uniform(-1.0, 1.0)});
      triplets.push_back({r, r, 2.0 * k});
    }
    row_ptr[n] = triplets.size();
    for (const la::Triplet& t : triplets) {
      cols.push_back(t.col);
      vals.push_back(t.value);
    }
    const GlobalSortCsr ref = global_sort_build(n, triplets);
    const la::CsrMatrix by_rows =
        la::CsrMatrix::from_rows(n, n, row_ptr, cols, vals);
    const la::CsrMatrix by_triplets =
        la::CsrMatrix::from_triplets(n, n, triplets);

    volatile std::size_t sink = 0;
    const auto t_ref = bench::measure(2, 11, 1, [&] {
      sink = global_sort_build(n, triplets).values.size();
    });
    const auto t_triplets = bench::measure(2, 11, 1, [&] {
      sink = la::CsrMatrix::from_triplets(n, n, triplets).nnz();
    });
    const auto t_rows = bench::measure(2, 11, 1, [&] {
      sink = la::CsrMatrix::from_rows(n, n, row_ptr, cols, vals).nnz();
    });
    (void)sink;
    report.scenario("csr_build")
        .det("n", n)
        .det("nnz", by_rows.nnz())
        .det("parity_rows", csr_mismatches(by_rows, ref))
        .det("parity_triplets", csr_mismatches(by_triplets, ref))
        .timing("global_sort", t_ref)
        .timing("from_triplets", t_triplets)
        .timing("from_rows", t_rows)
        .metric("speedup_median", t_ref.median_s / t_rows.median_s)
        .metric("speedup_triplets", t_ref.median_s / t_triplets.median_s);
    std::printf("%-16s global sort %6.2f ms  from_triplets %6.2f ms  "
                "from_rows %6.2f ms  speedup %.2fx / %.2fx\n",
                "csr_build", t_ref.median_s * 1e3, t_triplets.median_s * 1e3,
                t_rows.median_s * 1e3, t_ref.median_s / t_rows.median_s,
                t_ref.median_s / t_triplets.median_s);
  }

  // ---------------- reference solve: parallel sweep vs serial loop -----
  // The shape of jacobi_async_inproc's system: 2^18 rows, 8
  // off-diagonals, 24 blocks, solved to 1e-14 like every reference. The
  // sweep runs on min(CPUs, 24, 16) threads, and its sweep count and
  // iterate must equal the serial loop's bit for bit.
  {
    const std::size_t n = std::size_t{1} << 18, blocks = 24;
    Rng rng(91);
    const auto sys = problems::make_diagonally_dominant_system(n, 8, 2.0, rng);
    const op::JacobiOperator jacobi(sys.a, sys.b,
                                    la::Partition::balanced(n, blocks));
    op::Workspace ws;
    const la::Vector ref =
        serial_picard(jacobi, la::zeros(n), 50000, 1e-14, ws);
    const BlockThreads traced(jacobi);
    const la::Vector x =
        op::picard_solve(traced, la::zeros(n), 50000, 1e-14, ws);

    volatile double sink = 0.0;
    const auto t_ref = bench::measure(2, 11, 1, [&] {
      sink = serial_picard(jacobi, la::zeros(n), 50000, 1e-14, ws)[0];
    });
    const auto t_opt = bench::measure(2, 11, 1, [&] {
      sink = op::picard_solve(jacobi, la::zeros(n), 50000, 1e-14, ws)[0];
    });
    (void)sink;
    report.scenario("picard_reference")
        .det("n", n)
        .det("nnz", sys.a.nnz())
        .det("blocks", blocks)
        .det("sweeps", traced.sweeps())
        .det("parity_bits", bits_differ(x, ref))
        .timing("serial", t_ref)
        .timing("picard_solve", t_opt)
        .metric("threads", traced.threads())
        .metric("speedup_median", t_ref.median_s / t_opt.median_s);
    std::printf("%-16s serial %6.2f ms  picard_solve %6.2f ms on %zu "
                "threads  speedup %.2fx  (%zu sweeps)\n",
                "picard_reference", t_ref.median_s * 1e3,
                t_opt.median_s * 1e3, traced.threads(),
                t_ref.median_s / t_opt.median_s, traced.sweeps());

    // ---------------- gather probe: where jacobi_rows waits ------------
    // The same rows and values swept by the active kernel level on one
    // thread, three ways: as generated (off-diagonal columns spread over
    // x's 2 MB), with every off-diagonal column folded into x's low
    // 32,768 coordinates (256 KB, which L2 holds), and with sequential
    // columns (row r reads r+1, r+2, ...). Only where x is read changes,
    // so the spread between the three says whether the sweep waits on
    // misses on x or on bandwidth. Timings carry no floor.
    const auto row_ptr = sys.a.row_ptr();
    const auto cols = sys.a.col_idx();
    std::vector<std::uint32_t> folded(cols.begin(), cols.end());
    std::vector<std::uint32_t> sequential(cols.begin(), cols.end());
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t j = 0;
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        if (cols[k] == r) continue;  // the diagonal stays where it is
        folded[k] = cols[k] % 32768;
        sequential[k] = static_cast<std::uint32_t>((r + 1 + j++) % n);
      }
    }
    const la::Vector xg = seeded_vector(n, 92);
    const la::Vector diag = sys.a.diagonal();
    la::Vector inv_diag(n), out(n);
    for (std::size_t i = 0; i < n; ++i) inv_diag[i] = 1.0 / diag[i];
    auto ns_per_nnz = [&](const char* name, std::span<const std::uint32_t> c,
                          bench::Scenario& scenario) {
      const auto t = bench::measure(2, 11, 1, [&] {
        la::kern::jacobi_rows(row_ptr.data(), c.data(), sys.a.values().data(),
                              sys.b.data(), inv_diag.data(), 0, n, xg.data(),
                              out.data());
      });
      const double ns = t.median_s * 1e9 / double(sys.a.nnz());
      scenario.timing(name, t).metric(std::string("ns_per_nnz_") + name, ns);
      return ns;
    };
    bench::Scenario& gather = report.scenario("gather_probe");
    gather.det("n", n).det("nnz", sys.a.nnz());
    const double ns_generated = ns_per_nnz("generated", cols, gather);
    const double ns_folded = ns_per_nnz("folded", folded, gather);
    const double ns_sequential = ns_per_nnz("sequential", sequential, gather);
    std::printf("%-16s jacobi_rows ns/nnz: generated %.2f  folded to 256 KB "
                "%.2f  sequential %.2f\n",
                "gather_probe", ns_generated, ns_folded, ns_sequential);
  }

  // ---------------- the SIMD dispatch ladder ---------------------------
  // Each supported level vs the SCALAR level on identical inputs: SpMV,
  // the fused Jacobi row kernel (64-row block sweeps, the executors'
  // shape), and an L1-resident dot (n=1024 — the 4096-point dot above is
  // L2-bandwidth-bound and understates the vector win).
  {
    const std::size_t n = 4096, block = 64;
    Rng rng(61);
    auto sys = problems::make_diagonally_dominant_system(n, 16, 2.0, rng);
    const la::Vector x = seeded_vector(n, 62);
    const la::Vector diag = sys.a.diagonal();
    la::Vector inv_diag(n);
    for (std::size_t i = 0; i < n; ++i) inv_diag[i] = 1.0 / diag[i];
    const std::size_t nd = 1024;
    const la::Vector da = seeded_vector(nd, 63), db = seeded_vector(nd, 64);

    bench::Scenario& spmv = report.scenario("spmv_levels_n4096_nnz16");
    bench::Scenario& jrows = report.scenario("jacobi_rows_levels");
    bench::Scenario& dotl = report.scenario("dot_levels_n1024");
    spmv.det("n", n).det("nnz", sys.a.nnz());
    jrows.det("n", n).det("block", block).det("nnz", sys.a.nnz());
    dotl.det("n", nd);

    la::Vector y(n), y_scalar(n), out(block), out_scalar(n);
    double t_scalar_spmv = 0.0, t_scalar_jac = 0.0, t_scalar_dot = 0.0;
    double best_spmv = 0.0, best_jac = 0.0, best_dot = 0.0;

    for (const la::simd::Level level : la::simd::supported_levels()) {
      la::simd::force(level);
      const std::string name = la::simd::to_string(level);

      sys.a.matvec(x, y);
      const auto t_spmv =
          bench::measure(3, 21, 50, [&] { sys.a.matvec(x, y); });

      std::size_t row = 0;
      const auto t_jac = bench::measure(3, 21, 400, [&] {
        sys.a.jacobi_rows(row, row + block, sys.b, inv_diag, x, out);
        row = (row + block) % n;
      });

      volatile double sink = 0.0;
      const auto t_dot = bench::measure(3, 21, 400, [&] {
        sink = la::kern::dot(da.data(), db.data(), nd);
      });
      (void)sink;

      if (level == la::simd::Level::kScalar) {
        t_scalar_spmv = t_spmv.median_s;
        t_scalar_jac = t_jac.median_s;
        t_scalar_dot = t_dot.median_s;
        y_scalar = y;
        for (std::size_t r = 0; r < n; r += block)
          sys.a.jacobi_rows(r, r + block, sys.b, inv_diag, x,
                            std::span<double>(out_scalar).subspan(r, block));
      }

      // Level-vs-scalar parity on identical inputs: a pure function of
      // the seeded problem and the backend's summation order, hard-gated
      // (optional per level) by the baseline.
      double parity = max_abs_diff(y, y_scalar);
      la::Vector jac_out(n);
      for (std::size_t r = 0; r < n; r += block)
        sys.a.jacobi_rows(r, r + block, sys.b, inv_diag, x,
                          std::span<double>(jac_out).subspan(r, block));
      const double parity_jac = max_abs_diff(jac_out, out_scalar);

      spmv.det("parity_" + name, parity)
          .timing(name, t_spmv)
          .metric("speedup_" + name, t_scalar_spmv / t_spmv.median_s);
      jrows.det("parity_" + name, parity_jac)
          .timing(name, t_jac)
          .metric("speedup_" + name, t_scalar_jac / t_jac.median_s);
      dotl.timing(name, t_dot)
          .metric("speedup_" + name, t_scalar_dot / t_dot.median_s);
      best_spmv = std::max(best_spmv, t_scalar_spmv / t_spmv.median_s);
      best_jac = std::max(best_jac, t_scalar_jac / t_jac.median_s);
      best_dot = std::max(best_dot, t_scalar_dot / t_dot.median_s);

      std::printf("%-16s %-7s spmv %8.1f ns  jacobi64 %7.1f ns  "
                  "dot1k %6.1f ns\n",
                  "simd_levels", name.c_str(), t_spmv.median_s * 1e9,
                  t_jac.median_s * 1e9, t_dot.median_s * 1e9);
    }
    la::simd::dispatch();  // back to the startup level for what follows

    spmv.metric("speedup_best_vs_scalar", best_spmv);
    jrows.metric("speedup_best_vs_scalar", best_jac);
    dotl.metric("speedup_best_vs_scalar", best_dot);
    std::printf("%-16s best-vs-scalar: spmv %.2fx  jacobi %.2fx  "
                "dot1k %.2fx  (active: %s)\n",
                "simd_levels", best_spmv, best_jac, best_dot,
                la::simd::to_string(la::simd::active_level()));
  }

  // ---------------- shared-memory stores (no reference variant) -------
  {
    rt::SharedIterate shared(la::Vector(4096, 0.0));
    la::Vector block(64, 1.0);
    std::size_t offset = 0;
    const auto t_store = bench::measure(3, 21, 2000, [&] {
      shared.store_block(offset, block);
      offset = (offset + 64) % 4096;
    });
    la::Partition p = la::Partition::balanced(4096, 64);
    rt::SeqlockBlockStore store(p, la::Vector(4096, 0.0));
    la::BlockId b = 0;
    model::Step tag = 0;
    const auto t_seq = bench::measure(3, 21, 2000, [&] {
      store.write_block(b, block, ++tag);
      b = (b + 1) % 64;
    });
    report.scenario("stores")
        .det("n", 4096)
        .det("block", 64)
        .timing("hogwild_store", t_store)
        .timing("seqlock_write", t_seq);
    std::printf("%-16s hogwild %6.1f ns  seqlock %6.1f ns\n", "stores",
                t_store.median_s * 1e9, t_seq.median_s * 1e9);
  }

  report.write();
  return 0;
}
