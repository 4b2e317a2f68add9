// Statistics helpers used by the benchmark harnesses.
//
// `Sample` stores the raw observations for mean, deviation and percentile
// queries — the paper reports averages of 100 isolated runs (Table 1) and
// of 10 burst runs (Figures 4-6). `Histogram` is the cheap always-on form
// carried inside `Metrics`: power-of-two buckets, O(1) add, mergeable
// across processes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ritas {

/// One row of a counter list (`Metrics`, `net::TcpTransport::Stats`), as
/// handed to their `for_each` visitors. `c_id` is the counter's
/// `RITAS_STAT_*` id in the C API, or 0 when it has none.
struct CounterInfo {
  const char* name;
  const char* unit;
  const char* help;
  int c_id = 0;
};

/// Raw-observation container with percentile queries.
class Sample {
 public:
  void add(double x);
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Nearest-rank percentile, p in [0,100]. Requires at least one sample.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = false;
};

/// Power-of-two bucketed histogram of unsigned values (latencies in ns,
/// round counts, ...). Bucket i holds values whose bit width is i, i.e.
/// bucket 0 = {0}, bucket i = [2^(i-1), 2^i). Adding is branch-free and
/// allocation-free, so `Metrics` can carry these unconditionally; merging
/// with += matches the cluster-wide `Metrics::operator+=` aggregation.
/// Each bucket also tracks the largest value it absorbed, so percentile
/// extraction reports observed values (exact on sparse tails) rather than
/// raw power-of-two bucket bounds.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t total() const { return total_; }
  double mean() const { return count_ ? static_cast<double>(total_) / static_cast<double>(count_) : 0.0; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }
  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_floor(std::size_t i);

  /// Nearest-rank percentile over the bucketed distribution, p in [0,100].
  /// Returns the LARGEST OBSERVED value in the bucket holding the p-th
  /// rank: exact when that bucket is sparse (one distinct value — the
  /// common case at the p99.9 tail), otherwise conservatively rounded up
  /// within the bucket. Never exceeds max() and never falls below the true
  /// rank value. 0 on an empty histogram.
  std::uint64_t percentile_bound(double p) const;
  std::uint64_t p50() const { return percentile_bound(50.0); }
  std::uint64_t p99() const { return percentile_bound(99.0); }
  std::uint64_t p999() const { return percentile_bound(99.9); }

  Histogram& operator+=(const Histogram& other);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::array<std::uint64_t, kBuckets> bucket_max_{};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace ritas
