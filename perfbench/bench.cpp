#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

#include "fp/backend.hpp"

namespace perfbench {

long Tracer::open(const char* name, u64 unit, long parent, const char* tag) {
  Span s;
  s.name = name;
  s.tag = tag;
  s.parent = parent;
  s.unit = unit;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  spans_.back().start_ns = now_ns();
  return static_cast<long>(spans_.size() - 1);
}

void Tracer::close(long id, u64 cycles) {
  const u64 end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ns = end;
  s.cycles = cycles;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  bool ok = true;
  for (const Span& s : spans_) {
    ok = std::fprintf(f,
                      "{\"name\":\"%s\",\"tag\":\"%s\",\"start_ns\":%llu,"
                      "\"end_ns\":%llu,\"parent\":%ld,\"unit\":%llu,"
                      "\"cycles\":%llu}\n",
                      s.name, s.tag, static_cast<unsigned long long>(s.start_ns),
                      static_cast<unsigned long long>(s.end_ns), s.parent,
                      static_cast<unsigned long long>(s.unit),
                      static_cast<unsigned long long>(s.cycles)) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

SpanStats span_stats(const std::vector<Span>& spans, std::string_view name,
                     std::string_view tag) {
  SpanStats st;
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.us();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (name != s.name || (!tag.empty() && tag != s.tag)) continue;
    ++st.count;
    st.total_us += s.us();
    st.self_us += s.us() - child_us[i];
    st.cycles += s.cycles;
  }
  return st;
}

const char* engine_family(const xd::host::OpDesc& desc) {
  using xd::host::OpKind;
  switch (desc.kind) {
    case OpKind::Dot:
    case OpKind::DotBatch: return "dot";
    case OpKind::Gemv:
    case OpKind::GemvAuto:
      return desc.arch == xd::host::GemvArch::Tree ? "gemv_tree" : "gemv_col";
    case OpKind::Spmxv: return "spmxv";
    case OpKind::Gemm: return "mm_hier";
    case OpKind::GemmArray: return "mm_array";
    case OpKind::GemmMulti: return "mm_multi";
  }
  return "other";
}

u64 engine_cycles(const xd::host::Outcome& out) {
  return out.report.compute_cycles ? out.report.compute_cycles
                                   : out.report.cycles;
}

void select_backend() {
  const char* env = std::getenv("XDBLAS_FP_BACKEND");
  const auto sel = xd::fp::resolve_backend(env && *env ? env : "auto");
  xd::require(sel.backend != nullptr, "perfbench: no FP backend resolved");
}

void engine_metrics(const std::vector<Span>& spans, Metrics& out) {
  for (const char* fam : kEngineFamilies) {
    const SpanStats st = span_stats(spans, "host.runtime.run", fam);
    if (st.count == 0 || st.cycles == 0) continue;
    out[std::string("engine.") + fam + ".ns_per_cycle"] =
        st.total_us * 1e3 / static_cast<double>(st.cycles);
    out[std::string("engine.") + fam + ".cycles"] =
        static_cast<double>(st.cycles) / static_cast<double>(st.count);
  }
}

ProcCost ProcCost::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCost c;
  c.user_ms = static_cast<double>(ru.ru_utime.tv_sec) * 1e3 +
              static_cast<double>(ru.ru_utime.tv_usec) / 1e3;
  c.sys_ms = static_cast<double>(ru.ru_stime.tv_sec) * 1e3 +
             static_cast<double>(ru.ru_stime.tv_usec) / 1e3;
  c.minflt = static_cast<double>(ru.ru_minflt);
  c.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

ProcCost ProcCost::operator-(const ProcCost& o) const {
  ProcCost d;
  d.user_ms = user_ms - o.user_ms;
  d.sys_ms = sys_ms - o.sys_ms;
  d.minflt = minflt - o.minflt;
  d.ctx_switches = ctx_switches - o.ctx_switches;
  return d;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's RSS when larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  sched_setaffinity(0, sizeof saved_, &saved_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

void Tally::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void Tally::merge(Tally&& o) {
  attempted += o.attempted;
  failed += o.failed;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  for (auto& f : o.failures) {
    if (failures.size() < 8) failures.push_back(std::move(f));
  }
}

double Tally::throughput() const {
  const double busy_s = wall_s - probe_s;
  return busy_s > 0 ? static_cast<double>(attempted - failed) / busy_s : 0.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace perfbench
