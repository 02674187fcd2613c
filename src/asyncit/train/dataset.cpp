#include "asyncit/train/dataset.hpp"

#include <algorithm>
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
  // Select first, then copy the kept rows (already sorted and merged)
  // straight into CSR arrays of their exact size.
  std::vector<std::size_t> kept;
  kept.reserve(cfg.samples);
  std::vector<std::size_t> row_ptr{0};
  row_ptr.reserve(cfg.samples + 1);
  for (std::size_t h = 0; h < wide.samples && kept.size() < cfg.samples;
       ++h) {
    const std::span<const double> vals = a.row_values(h);
    double row_sq = 0.0;
    for (const double v : vals) row_sq += v * v;
    const double margin = a.row_dot(h, raw.ground_truth);
    if (row_sq == 0.0 ||
        std::abs(margin) < kMarginGap * std::sqrt(row_sq) * truth_norm)
      continue;
    kept.push_back(h);
    row_ptr.push_back(row_ptr.back() + vals.size());
    d.labels.push_back(raw.labels[h]);
  }
  ASYNCIT_CHECK_MSG(kept.size() == cfg.samples,
                    "margin-gap selection starved; raise kOversample");
  std::vector<std::uint32_t> col_idx(row_ptr.back());
  std::vector<double> values(row_ptr.back());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    std::ranges::copy(a.row_cols(kept[i]), col_idx.begin() + row_ptr[i]);
    std::ranges::copy(a.row_values(kept[i]), values.begin() + row_ptr[i]);
  }
  d.design = la::CsrMatrix::from_rows(cfg.samples, cfg.features,
                                      std::move(row_ptr), std::move(col_idx),
                                      std::move(values));
  return d;
}

}  // namespace asyncit::train
