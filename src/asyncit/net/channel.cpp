#include "asyncit/net/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "asyncit/support/check.hpp"

namespace asyncit::net {

// ------------------------------------------------------- DelayHistogram

std::span<const double, DelayHistogram::kBuckets> DelayHistogram::edges() {
  // One table for every histogram, built once as a running product from
  // kLo: the quantiles interpolate between exactly these doubles.
  static const std::array<double, kBuckets> table = [] {
    constexpr double kLo = 1e-6;
    constexpr double kHi = 10.0;
    constexpr std::size_t kFinite = kBuckets - 1;
    std::array<double, kBuckets> t{};
    const double ratio = std::pow(kHi / kLo, 1.0 / double(kFinite - 1));
    double e = kLo;
    for (std::size_t i = 0; i < kFinite; ++i, e *= ratio) t[i] = e;
    t[kFinite] = std::numeric_limits<double>::infinity();
    return t;
  }();
  return table;
}

void DelayHistogram::add(double delay_seconds) {
  const double d = std::max(0.0, delay_seconds);
  const std::span<const double, kBuckets> e = edges();
  ++counts_[static_cast<std::size_t>(std::lower_bound(e.begin(), e.end(), d) -
                                     e.begin())];
  ++count_;
  sum_ += d;
  min_ = (count_ == 1) ? d : std::min(min_, d);
  max_ = std::max(max_, d);
}

void DelayHistogram::merge(const DelayHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  min_ = (count_ == 0) ? other.min_ : std::min(min_, other.min_);
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double DelayHistogram::quantile(double p) const {
  ASYNCIT_CHECK(p >= 0.0 && p <= 1.0);
  if (count_ == 0) return 0.0;
  const std::span<const double, kBuckets> e = edges();
  const double rank = p * double(count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t seen = below + counts_[i];
    if (double(seen) >= rank) {
      // Interpolate by rank between the bucket's edges, each clamped to
      // the observed [min, max]: an edge can lie outside every sample.
      const double lo = std::clamp(i == 0 ? 0.0 : e[i - 1], min_, max_);
      const double hi = std::clamp(e[i], min_, max_);
      return lo + (hi - lo) * (rank - double(below)) / double(counts_[i]);
    }
    below = seen;
  }
  return max_;
}

// -------------------------------------------------------------- LinkSpec

LinkSpec link_spec(const DeliveryPolicy& policy) {
  ASYNCIT_CHECK(policy.min_latency >= 0.0 &&
                policy.max_latency >= policy.min_latency);
  ASYNCIT_CHECK(policy.drop_prob >= 0.0 && policy.drop_prob < 1.0);
  return {policy.min_latency, policy.max_latency, policy.drop_prob,
          policy.drop_control, policy.fifo};
}

}  // namespace asyncit::net
