#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ritas {

void Sample::add(double x) {
  xs_.push_back(x);
  dirty_ = true;
}

double Sample::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Sample::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double Sample::min() const {
  if (xs_.empty()) return 0.0;
  return *std::min_element(xs_.begin(), xs_.end());
}

double Sample::max() const {
  if (xs_.empty()) return 0.0;
  return *std::max_element(xs_.begin(), xs_.end());
}

double Sample::percentile(double p) const {
  if (xs_.empty()) throw std::logic_error("percentile of empty sample");
  if (dirty_) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted_.size())));
  return sorted_[rank == 0 ? 0 : rank - 1];
}

void Histogram::add(std::uint64_t v) {
  const auto b = static_cast<std::size_t>(std::bit_width(v));
  ++buckets_[b];
  bucket_max_[b] = std::max(bucket_max_[b], v);
  ++count_;
  total_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::bucket_floor(std::size_t i) {
  return i == 0 ? 0 : 1ull << (i - 1);
}

std::uint64_t Histogram::percentile_bound(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Largest value observed in bucket i: exact when the bucket holds one
      // distinct value (the common case at sparse tails), otherwise an upper
      // bound that never drops below the true rank value.
      return bucket_max_[i];
    }
  }
  return max_;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
    bucket_max_[i] = std::max(bucket_max_[i], other.bucket_max_[i]);
  }
  count_ += other.count_;
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  return *this;
}

}  // namespace ritas
