#include "asyncit/train/dataset.hpp"

#include <cmath>

#include "asyncit/support/check.hpp"
#include "asyncit/support/rng.hpp"

namespace asyncit::train {

namespace {

/// Minimum |cos(a_h, truth)| a kept row must clear. The solve-side
/// generator labels rows by the SIGN of the ground-truth margin, which
/// leaves a heavy mass of rows arbitrarily close to the hyperplane —
/// those rows pin train accuracy at ~0.93 no matter how the optimizer
/// runs. A margin gap makes the instance γ-separable, so any iterate
/// whose direction is within the gap of the truth classifies every
/// un-flipped row correctly (accuracy ceiling = 1 − label_noise).
constexpr double kMarginGap = 0.05;

/// Oversampling factor: ~25% of rows fall inside the gap, so 4× leaves
/// a wide determinism-safe cushion before the count check can fire.
constexpr std::size_t kOversample = 4;

}  // namespace

Dataset make_synthetic_dataset(const problems::LogisticConfig& cfg,
                               std::uint64_t seed) {
  ASYNCIT_CHECK_MSG(cfg.ridge > 0.0,
                    "ridge must be positive: Section V assumes mu > 0");
  problems::LogisticConfig wide = cfg;
  wide.samples = kOversample * cfg.samples;
  Rng rng(seed);
  const problems::LogisticData raw = problems::make_logistic_data(wide, rng);
  const la::CsrMatrix& a = raw.design;

  double truth_sq = 0.0;
  for (const double v : raw.ground_truth) truth_sq += v * v;
  const double truth_norm = std::sqrt(truth_sq);
  ASYNCIT_CHECK(truth_norm > 0.0);

  // Keep the first cfg.samples rows outside the margin gap. Selection
  // uses the PRE-noise ground-truth margin, so label noise still lands
  // where the config asked for it (kept rows far from the boundary).
  Dataset d;
  d.labels.reserve(cfg.samples);
  d.ridge = cfg.ridge;
  std::vector<la::Triplet> kept;
  std::uint32_t out_row = 0;
  for (std::size_t h = 0; h < wide.samples && out_row < cfg.samples; ++h) {
    const std::span<const std::uint32_t> cols = a.row_cols(h);
    const std::span<const double> vals = a.row_values(h);
    double row_sq = 0.0;
    for (const double v : vals) row_sq += v * v;
    const double margin = a.row_dot(h, raw.ground_truth);
    if (row_sq == 0.0 ||
        std::abs(margin) < kMarginGap * std::sqrt(row_sq) * truth_norm)
      continue;
    for (std::size_t k = 0; k < cols.size(); ++k)
      kept.push_back({out_row, cols[k], vals[k]});
    d.labels.push_back(raw.labels[h]);
    ++out_row;
  }
  ASYNCIT_CHECK_MSG(out_row == cfg.samples,
                    "margin-gap selection starved; raise kOversample");
  d.design =
      la::CsrMatrix::from_triplets(cfg.samples, cfg.features, std::move(kept));
  return d;
}

}  // namespace asyncit::train
