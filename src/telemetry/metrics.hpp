// Library-wide metrics registry.
//
// Components of the simulated machine (SRAM banks, channels, FP units, the
// BLAS engines themselves) publish named performance counters into one
// registry per run, so a single export call yields the whole machine's
// accounting — the simulator's equivalent of the per-module counters FPGA
// BLAS designs expose for tuning.
//
// Names are hierarchical, dot-separated, lower-case:
//
//   mem.sram.bank0.stall_cycles     counter (monotonic count)
//   fpu.gemv.mul.utilization        gauge   (point-in-time double)
//   blas1.dot.vector_words          histogram (distribution of samples)
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (node-based storage); re-requesting a name returns the
// same metric, and requesting an existing name as a different kind throws
// ConfigError. Recording through a handle is a couple of arithmetic ops —
// but the intended pattern is cheaper still: components keep their own plain
// counters on the hot path and publish() a snapshot once per run, so a run
// with telemetry disabled does no registry work at all.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/util.hpp"

namespace xd::telemetry {

enum class MetricKind { Counter, Gauge, Histogram };

/// The registry's storage record; handles below are typed views of it.
struct Metric {
  MetricKind kind = MetricKind::Counter;
  bool touched = false;  ///< any recording since creation / reset_values()
  u64 count = 0;        ///< counter value
  double value = 0.0;   ///< gauge value
  RunningStats dist;    ///< histogram moments/extremes
  QuantileSketch sketch;  ///< histogram percentiles (p50/p95/p99 exports)
};

/// Monotonically increasing count (events, cycles, words moved).
class Counter {
 public:
  explicit Counter(Metric& m) : m_(&m) {}
  void add(u64 delta = 1) {
    m_->count += delta;
    m_->touched = true;
  }
  u64 value() const { return m_->count; }

 private:
  Metric* m_;
};

/// Last-write-wins instantaneous value (utilization, rates, configuration).
class Gauge {
 public:
  explicit Gauge(Metric& m) : m_(&m) {}
  void set(double v) {
    m_->value = v;
    m_->touched = true;
  }
  double value() const { return m_->value; }

 private:
  Metric* m_;
};

/// Streaming distribution (count / mean / stddev / min / max / sum, plus
/// percentiles through the bucketed quantile sketch).
class HistogramMetric {
 public:
  explicit HistogramMetric(Metric& m) : m_(&m) {}
  void observe(double sample) {
    m_->dist.add(sample);
    m_->sketch.add(sample);
    m_->touched = true;
  }
  const RunningStats& stats() const { return m_->dist; }
  /// Sketch quantile clamped to the exactly tracked [min, max], so constant
  /// distributions report their value exactly and no percentile ever leaves
  /// the observed range.
  double percentile(double q) const;

 private:
  Metric* m_;
};

class MetricsRegistry {
 public:
  /// Get-or-create. Throws ConfigError on an invalid name (see valid_name)
  /// or when `name` already exists with a different kind.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  HistogramMetric histogram(std::string_view name);

  MetricsRegistry() : epoch_(next_epoch()) {}
  // Merge bindings and MetricLists elsewhere point into this registry's
  // nodes under its epoch, so it is never copied or moved.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool contains(std::string_view name) const;
  const Metric* find(std::string_view name) const;
  std::size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }
  void clear();

  /// Changes whenever the set of metrics does (an insert or clear()), and
  /// is unique across registries: metric pointers cached under one epoch
  /// (MetricList, merge bindings) stay valid until it changes.
  u64 epoch() const { return epoch_; }
  /// reset_values() calls so far: a value written under one (epoch,
  /// resets) pair is still there unless someone else overwrote that name.
  u64 resets() const { return resets_; }

  /// Zero every metric's recorded values but keep the map nodes (names,
  /// kinds, handle addresses). Much cheaper than clear() + re-registration,
  /// so per-op shard sessions reuse their maps across ops; merge_from()
  /// skips entries untouched since the reset, so a stale gauge from an
  /// earlier op on the same shard never leaks into a later merge.
  void reset_values();

  /// All registered names, sorted (map order).
  std::vector<std::string> names() const;

  /// Iterate (name, metric) in sorted name order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, metric] : metrics_) fn(name, metric);
  }

  /// Merge another registry into this one: counters add, gauges take the
  /// other's value (last write wins), histograms combine their moments and
  /// sketches. Used by Session::merge to fold per-worker shards into the
  /// shared registry, and by replayed engine runs to publish their recorded
  /// datapath metrics; histogram counts and sketch percentiles are exact
  /// under any merge order. Throws ConfigError when a name exists in both
  /// registries with different kinds.
  void merge_from(const MetricsRegistry& other);

  /// Valid names are non-empty dot-separated segments of [a-z0-9_-];
  /// no leading/trailing/double dots.
  static bool valid_name(std::string_view name);

  /// Clamped sketch quantile of a histogram metric (see
  /// HistogramMetric::percentile).
  static double percentile(const Metric& m, double q);

 private:
  friend class MetricList;

  static u64 next_epoch();
  Metric& get(std::string_view name, MetricKind kind);

  u64 epoch_;
  u64 resets_ = 0;

  /// std::map: node-based, so Metric addresses are stable across inserts.
  std::map<std::string, Metric, std::less<>> metrics_;

  /// merge_from()'s bindings: for a source registry at one epoch, each of
  /// the source's entries paired with this registry's metric of that name
  /// (null until the entry is first merged). A few sources recur (the
  /// workers' shards, the recorded fragments), so the merges after the
  /// first walk a flat array and resolve no names. Dropped by clear().
  struct Binding {
    u64 source_epoch = 0;
    std::vector<std::pair<const std::pair<const std::string, Metric>*, Metric*>>
        pairs;
  };
  static constexpr std::size_t kBindings = 8;
  std::vector<Binding> bindings_;
  std::size_t next_binding_ = 0;
  Binding& binding_for(const MetricsRegistry& source);
};

/// Handles to a fixed list of metrics of one kind in one registry, resolved
/// again only when the registry's epoch changes: for publishers that set the
/// same names after every op (the runtime's gauges and latency histograms).
/// Not synchronized; callers serialize as they do for the registry.
class MetricList {
 public:
  MetricList(MetricKind kind, std::vector<std::string_view> names)
      : kind_(kind), names_(std::move(names)) {}

  /// The handles, in name order, for `reg` (creating missing metrics).
  Metric* const* bind(MetricsRegistry& reg);

  /// For a gauge list: set gauge i to values[i]. While `reg` keeps its
  /// epoch and has not been reset, only the gauges whose value changed
  /// since the last call are written, so a per-op publisher touches few
  /// metrics. A name this list publishes must not also be set elsewhere.
  void set_gauges(MetricsRegistry& reg, const double* values);

 private:
  MetricKind kind_;
  std::vector<std::string_view> names_;
  u64 epoch_ = 0;
  std::vector<Metric*> handles_;
  u64 resets_ = 0;  ///< the registry's resets() when last_ was written
  std::vector<double> last_;
};

}  // namespace xd::telemetry
