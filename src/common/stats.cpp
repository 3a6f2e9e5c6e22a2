#include "common/stats.hpp"

#include <cmath>
#include <sstream>

#include "common/util.hpp"

namespace xd {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string RunningStats::summary() const {
  std::ostringstream os;
  os << "n=" << n_ << " mean=" << mean() << " sd=" << stddev() << " min=" << min()
     << " max=" << max();
  return os.str();
}

namespace {

/// Sub-buckets per power of two. 16 keeps the relative error under
/// 100%/(2*16) ~ 3.2% while the key space stays small enough for int.
constexpr int kSubBuckets = 16;
constexpr int kNegativeKey = std::numeric_limits<int>::min();
constexpr int kZeroKey = kNegativeKey + 1;

}  // namespace

int QuantileSketch::key_of(double x) {
  if (!(x > 0.0)) {
    // Negative, zero and NaN all fall through the x > 0 test; NaN counts as
    // zero so the sketch stays total without inventing an ordering for it.
    return x < 0.0 ? kNegativeKey : kZeroKey;
  }
  if (std::isinf(x)) x = std::numeric_limits<double>::max();
  int exp = 0;
  const double mant = std::frexp(x, &exp);  // mant in [0.5, 1)
  int sub = static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // guard rounding at 1.0
  if (sub < 0) sub = 0;
  // frexp exponents span roughly [-1073, 1025]; scaled by kSubBuckets this
  // stays far inside int range and above the two sentinel keys.
  return exp * kSubBuckets + sub;
}

double QuantileSketch::lower_edge(int key) {
  if (key == kNegativeKey) return -std::numeric_limits<double>::infinity();
  if (key == kZeroKey) return 0.0;
  // Floor-divide toward the exponent the key was built from (key may be
  // negative; C++ integer division truncates toward zero).
  int exp = key / kSubBuckets;
  int sub = key % kSubBuckets;
  if (sub < 0) {
    sub += kSubBuckets;
    --exp;
  }
  const double mant = 0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets);
  return std::ldexp(mant, exp);
}

void QuantileSketch::add(double x) {
  const int key = key_of(x);
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), key,
      [](const std::pair<int, std::uint64_t>& b, int k) { return b.first < k; });
  if (it != buckets_.end() && it->first == key) {
    ++it->second;
  } else {
    buckets_.insert(it, {key, 1});
  }
  ++n_;
}

void QuantileSketch::merge(const QuantileSketch& o) {
  if (o.n_ == 0) return;
  n_ += o.n_;
  // The telemetry path merges a small per-op sketch after every op, and its
  // keys are nearly always present already: then add in place, without
  // allocating. Otherwise merge the two sorted runs into a fresh vector.
  std::size_t i = 0;
  bool all_present = true;
  for (const auto& b : o.buckets_) {
    while (i < buckets_.size() && buckets_[i].first < b.first) ++i;
    if (i == buckets_.size() || buckets_[i].first != b.first) {
      all_present = false;
      break;
    }
  }
  if (all_present) {
    i = 0;
    for (const auto& [key, count] : o.buckets_) {
      while (buckets_[i].first != key) ++i;
      buckets_[i].second += count;
    }
    return;
  }
  std::vector<std::pair<int, std::uint64_t>> out;
  out.reserve(buckets_.size() + o.buckets_.size());
  std::size_t j = 0;
  i = 0;
  while (i < buckets_.size() || j < o.buckets_.size()) {
    if (j == o.buckets_.size() ||
        (i < buckets_.size() && buckets_[i].first < o.buckets_[j].first)) {
      out.push_back(buckets_[i++]);
    } else if (i == buckets_.size() || o.buckets_[j].first < buckets_[i].first) {
      out.push_back(o.buckets_[j++]);
    } else {
      out.push_back({buckets_[i].first, buckets_[i].second + o.buckets_[j].second});
      ++i;
      ++j;
    }
  }
  buckets_ = std::move(out);
}

void QuantileSketch::reset() {
  buckets_.clear();  // keeps the storage for the next op's samples
  n_ = 0;
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(n_);
  std::uint64_t seen = 0;
  for (const auto& [key, count] : buckets_) {
    seen += count;
    if (static_cast<double>(seen) >= target) return lower_edge(key);
  }
  return lower_edge(buckets_.back().first);
}

Histogram::Histogram(std::size_t buckets) : counts_(buckets + 1, 0) {
  require(buckets >= 1, "Histogram needs at least one bucket");
}

void Histogram::add(std::size_t value) {
  const std::size_t bucket = std::min(value, counts_.size() - 1);
  ++counts_[bucket];
  ++total_;
  sum_ += static_cast<double>(value);
  max_ = std::max(max_, value);
}

std::size_t Histogram::quantile(double q) const {
  if (total_ == 0) return 0;
  const double target = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (static_cast<double>(seen) >= target) return b;
  }
  return counts_.size() - 1;
}

}  // namespace xd
