#include "asyncit/net/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "asyncit/support/check.hpp"

namespace asyncit::net {

// ------------------------------------------------------- DelayHistogram

namespace {
// 1 microsecond .. 10 seconds, 36 log-spaced buckets plus an overflow
// bucket; covers everything from same-quantum delivery to stragglers.
constexpr double kEdgeLo = 1e-6;
constexpr double kEdgeHi = 10.0;
constexpr std::size_t kBuckets = 36;
}  // namespace

DelayHistogram::DelayHistogram() {
  edges_.reserve(kBuckets + 1);
  const double ratio = std::pow(kEdgeHi / kEdgeLo, 1.0 / double(kBuckets - 1));
  double e = kEdgeLo;
  for (std::size_t i = 0; i < kBuckets; ++i, e *= ratio) edges_.push_back(e);
  edges_.push_back(std::numeric_limits<double>::infinity());
  counts_.assign(edges_.size(), 0);
}

void DelayHistogram::add(double delay_seconds) {
  const double d = std::max(0.0, delay_seconds);
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), d);
  ++counts_[static_cast<std::size_t>(it - edges_.begin())];
  ++count_;
  sum_ += d;
  min_ = (count_ == 1) ? d : std::min(min_, d);
  max_ = std::max(max_, d);
}

void DelayHistogram::merge(const DelayHistogram& other) {
  ASYNCIT_CHECK(counts_.size() == other.counts_.size());
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  min_ = (count_ == 0) ? other.min_ : std::min(min_, other.min_);
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double DelayHistogram::quantile(double p) const {
  ASYNCIT_CHECK(p >= 0.0 && p <= 1.0);
  if (count_ == 0) return 0.0;
  const double rank = p * double(count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t seen = below + counts_[i];
    if (double(seen) >= rank) {
      // Interpolate by rank between the bucket's edges, each clamped to
      // the observed [min, max]: an edge can lie outside every sample.
      const double lo = std::clamp(i == 0 ? 0.0 : edges_[i - 1], min_, max_);
      const double hi = std::clamp(edges_[i], min_, max_);
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
