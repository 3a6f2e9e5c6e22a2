#include "telemetry/metrics.hpp"

#include <atomic>

namespace xd::telemetry {

namespace {

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

bool valid_segment_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '-';
}

}  // namespace

bool MetricsRegistry::valid_name(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (char c : name) {
    if (c == '.') {
      if (prev_dot) return false;
      prev_dot = true;
    } else if (valid_segment_char(c)) {
      prev_dot = false;
    } else {
      return false;
    }
  }
  return true;
}

u64 MetricsRegistry::next_epoch() {
  static std::atomic<u64> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::clear() {
  metrics_.clear();
  bindings_.clear();
  epoch_ = next_epoch();
}

Metric& MetricsRegistry::get(std::string_view name, MetricKind kind) {
  // Error messages are built only on the failure paths: this accessor is on
  // the recording hot path, and an eagerly evaluated cat() here used to
  // dominate the cost of every counter/gauge/histogram touch.
  if (!valid_name(name)) {
    throw ConfigError(
        cat("invalid metric name '", name,
            "' (want dot-separated lower-case segments of [a-z0-9_-])"));
  }
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Metric{}).first;
    it->second.kind = kind;
    epoch_ = next_epoch();
  } else if (it->second.kind != kind) {
    throw ConfigError(cat("metric '", name, "' already registered as ",
                          kind_name(it->second.kind), ", requested as ",
                          kind_name(kind)));
  }
  return it->second;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(get(name, MetricKind::Counter));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(get(name, MetricKind::Gauge));
}

HistogramMetric MetricsRegistry::histogram(std::string_view name) {
  return HistogramMetric(get(name, MetricKind::Histogram));
}

double MetricsRegistry::percentile(const Metric& m, double q) {
  if (m.sketch.empty()) return 0.0;
  const double v = m.sketch.quantile(q);
  return std::min(std::max(v, m.dist.min()), m.dist.max());
}

double HistogramMetric::percentile(double q) const {
  return MetricsRegistry::percentile(*m_, q);
}

MetricsRegistry::Binding& MetricsRegistry::binding_for(
    const MetricsRegistry& source) {
  for (Binding& b : bindings_) {
    if (b.source_epoch == source.epoch_) return b;
  }
  Binding* b;
  if (bindings_.size() < kBindings) {
    b = &bindings_.emplace_back();
  } else {
    b = &bindings_[next_binding_];  // round-robin replacement
    next_binding_ = (next_binding_ + 1) % kBindings;
  }
  b->source_epoch = source.epoch_;
  b->pairs.clear();
  for (const auto& entry : source.metrics_) b->pairs.emplace_back(&entry, nullptr);
  return *b;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // The runtime merges a worker shard after every completed op, and a
  // replayed run merges its recorded fragment: through the binding for the
  // source's epoch, repeat merges resolve no names at all.
  for (auto& [source, target] : binding_for(other).pairs) {
    const Metric& theirs = source->second;
    // Untouched entries carry no recordings — either freshly created or
    // left over in a reset_values() shard from an earlier op of a different
    // kind. Merging one would leak a stale gauge name (with value 0) into
    // this registry, so skip them entirely.
    if (!theirs.touched) continue;
    if (!target) target = &get(source->first, theirs.kind);
    Metric& mine = *target;
    mine.touched = true;
    switch (theirs.kind) {
      case MetricKind::Counter:
        mine.count += theirs.count;
        break;
      case MetricKind::Gauge:
        mine.value = theirs.value;
        break;
      case MetricKind::Histogram:
        mine.dist.merge(theirs.dist);
        mine.sketch.merge(theirs.sketch);
        break;
    }
  }
}

void MetricList::set_gauges(MetricsRegistry& reg, const double* values) {
  const bool same_epoch = epoch_ == reg.epoch();
  Metric* const* g = bind(reg);
  const bool known = same_epoch && resets_ == reg.resets();
  last_.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (known && last_[i] == values[i]) continue;
    Gauge(*g[i]).set(values[i]);
    last_[i] = values[i];
  }
  resets_ = reg.resets();
}

Metric* const* MetricList::bind(MetricsRegistry& reg) {
  if (epoch_ != reg.epoch()) {
    handles_.clear();
    for (const std::string_view name : names_) {
      handles_.push_back(&reg.get(name, kind_));
    }
    epoch_ = reg.epoch();  // after any inserts the resolution made
  }
  return handles_.data();
}

void MetricsRegistry::reset_values() {
  ++resets_;
  for (auto& [name, m] : metrics_) {
    if (!m.touched) continue;  // nothing recorded since the last reset
    m.touched = false;
    m.count = 0;
    m.value = 0.0;
    m.dist.reset();
    m.sketch.reset();
  }
}

bool MetricsRegistry::contains(std::string_view name) const {
  return metrics_.find(name) != metrics_.end();
}

const Metric* MetricsRegistry::find(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) out.push_back(name);
  return out;
}

}  // namespace xd::telemetry
