#include "serve/proto.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <set>
#include <sstream>

#include "common/random.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"

namespace xd::serve {

namespace {

/// Flags valid on any record line. The telemetry sinks are recognized (so
/// the diagnostic is precise) but rejected: they are per-process options of
/// the CLI, not per-line record fields.
const std::set<std::string> kCommonFlags = {"seed"};
const std::set<std::string> kPerProcessFlags = {
    "json", "metrics-out", "trace-out", "trace-filter", "flight-out"};
const std::set<std::string> kBoolFlags = {"from-dram"};

const std::map<std::string, std::set<std::string>> kOpFlags = {
    {"dot", {"n", "k", "bw-gbs", "from-dram"}},
    {"gemv", {"n", "k", "from-dram", "arch"}},
    {"gemm", {"n", "k", "m", "b", "l"}},
    {"spmxv", {"n", "nnz-per-row", "k"}},
    {"graph", {"from-dram"}},
};

/// Key/value view of one line's flags, with validated accessors that
/// report problems through an error string instead of throwing.
struct LineArgs {
  std::map<std::string, std::string> kv;
  std::string error;  ///< first problem seen; "" = clean so far

  bool flag(const std::string& name) const { return kv.count(name) > 0; }
  bool explicit_flag(const std::string& name) const { return flag(name); }

  long long integer(const std::string& name, long long dflt) {
    const auto it = kv.find(name);
    if (it == kv.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
      set_error(cat("--", name, " expects an integer, got '", it->second,
                    "'"));
      return dflt;
    }
    if (v < 0) {
      set_error(cat("--", name, " must be non-negative, got ", v));
      return dflt;
    }
    return v;
  }

  double num(const std::string& name, double dflt) {
    const auto it = kv.find(name);
    if (it == kv.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
      set_error(cat("--", name, " expects a number, got '", it->second, "'"));
      return dflt;
    }
    return v;
  }

  std::string str(const std::string& name, const std::string& dflt) const {
    const auto it = kv.find(name);
    return it == kv.end() ? dflt : it->second;
  }

  void set_error(const std::string& e) {
    if (error.empty()) error = e;
  }
};

/// Parse `--flag [value]` tokens against the allowed set; errors accumulate
/// in `la.error` (first one wins) so the caller emits one error record.
void parse_flags(const std::vector<std::string>& tokens,
                 const std::string& command,
                 const std::set<std::string>& allowed, LineArgs& la) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].rfind("--", 0) != 0) {
      la.set_error(cat("unexpected argument '", tokens[i], "'"));
      return;
    }
    const std::string key = tokens[i].substr(2);
    if (kPerProcessFlags.count(key)) {
      la.set_error(cat("'--", key, "' is per-process, not per-line"));
      return;
    }
    if (!kCommonFlags.count(key) && !allowed.count(key)) {
      la.set_error(cat("unknown flag '--", key, "' for '", command, "'"));
      return;
    }
    if (kBoolFlags.count(key)) {
      la.kv.insert_or_assign(key, "1");
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      la.kv[key] = tokens[++i];
    } else {
      la.set_error(cat("flag '--", key, "' expects a value"));
      return;
    }
  }
}

/// Check one requested dimension against the per-line size limit; returns
/// an error message ("" when within bounds). Dimensions are bounded before
/// any product is formed, so n*n below never overflows.
std::string check_dim(const char* what, std::size_t v,
                      const ParseLimits& limits) {
  if (v <= limits.max_n) return "";
  return cat(what, " ", v, " exceeds the problem-size limit ", limits.max_n);
}

/// Account `add` more to-be-materialized doubles against the per-line
/// operand budget; returns an error message ("" when within bounds). Called
/// BEFORE the corresponding pool allocation, so an over-budget line never
/// allocates.
std::string charge_elems(std::size_t add, std::size_t& elems,
                         const ParseLimits& limits) {
  elems += add;
  if (elems <= limits.max_elems) return "";
  return cat("line would materialize ", elems,
             " doubles, exceeding the per-line operand limit ",
             limits.max_elems);
}

/// Parse one `graph` node spec (`name=kind[:key=val,...]`) into req.graph.
/// Operand keys valued `@name` become graph edges from the named earlier
/// node; absent operand keys are materialized from `rng`. `elems` is the
/// line's running operand budget. Returns an error message ("" on success).
std::string add_graph_node(const std::string& spec, host::Placement src,
                           Rng& rng, Request& req, const ParseLimits& limits,
                           std::size_t& elems) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    return cat("node spec '", spec, "' is not name=kind[:key=val,...]");
  }
  const std::string name = spec.substr(0, eq);
  if (name.front() == '@' || name.find(':') != std::string::npos) {
    return cat("node name '", name, "' may not contain '@' or ':'");
  }
  for (const auto& nd : req.graph.nodes) {
    if (nd.name == name) return cat("duplicate node name '", name, "'");
  }

  std::string kind = spec.substr(eq + 1);
  std::map<std::string, std::string> kv;
  if (const auto colon = kind.find(':'); colon != std::string::npos) {
    std::istringstream opts(kind.substr(colon + 1));
    kind = kind.substr(0, colon);
    std::string item;
    while (std::getline(opts, item, ',')) {
      const auto e = item.find('=');
      if (e == std::string::npos || e == 0 || e + 1 >= item.size()) {
        return cat("node '", name, "': bad option '", item,
                   "' (want key=val)");
      }
      kv[item.substr(0, e)] = item.substr(e + 1);
    }
  }

  static const std::map<std::string, std::set<std::string>> kNodeKeys = {
      {"dot", {"n", "a", "b", "keep"}},
      {"gemv", {"n", "arch", "x", "keep"}},
      {"spmxv", {"n", "nnz", "x", "keep"}},
  };
  const auto keys = kNodeKeys.find(kind);
  if (keys == kNodeKeys.end()) {
    return cat("node '", name, "': graph nodes support dot/gemv/spmxv, got '",
               kind, "'");
  }
  for (const auto& [k, v] : kv) {
    if (!keys->second.count(k)) {
      return cat("node '", name, "': unknown key '", k, "' for ", kind);
    }
  }

  auto size_of = [&](const std::string& key, std::size_t dflt,
                     std::size_t& out) -> std::string {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      out = dflt;
      return "";
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE ||
        v <= 0) {
      return cat("node '", name, "': ", key,
                 " expects a positive integer, got '", it->second, "'");
    }
    out = static_cast<std::size_t>(v);
    return "";
  };

  host::GraphNode node;
  node.name = name;
  if (const auto it = kv.find("keep"); it != kv.end()) {
    if (it->second != "0" && it->second != "1") {
      return cat("node '", name, "': keep expects 0 or 1");
    }
    node.keep = it->second == "1";
  }

  // Resolve an operand key: `@name` feeds the named earlier node's result
  // through an edge (the pointer stays null for the runtime to patch),
  // anything else is rejected — operands are seeded, never literal.
  const std::size_t self = req.graph.nodes.size();
  auto operand = [&](const std::string& key, host::OperandSlot slot,
                     std::size_t len,
                     const std::vector<double>*& field) -> std::string {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      field = &req.pool.emplace_back(rng.vector(len));
      return "";
    }
    if (it->second.empty() || it->second.front() != '@') {
      return cat("node '", name, "': ", key,
                 " expects '@node' (operands are seeded, not literal), got '",
                 it->second, "'");
    }
    const std::string ref = it->second.substr(1);
    for (std::size_t i = 0; i < self; ++i) {
      if (req.graph.nodes[i].name == ref) {
        req.graph.edges.push_back({i, self, slot});
        field = nullptr;
        return "";
      }
    }
    return cat("node '", name, "': unknown node '@", ref,
               "' (refs must name an earlier node on the line)");
  };

  host::OpDesc& d = node.desc;
  std::size_t n = 0;
  std::string err;
  if (!(err = size_of("n", 256, n)).empty()) return err;
  if (!(err = check_dim(cat("node '", name, "': n").c_str(), n, limits))
           .empty()) {
    return err;
  }
  if (kind == "dot") {
    if (!(err = charge_elems(2 * n, elems, limits)).empty()) return err;
    d.kind = host::OpKind::Dot;
    d.placement = src;
    d.cols = n;
    if (!(err = operand("a", host::OperandSlot::A, n, d.a)).empty()) return err;
    if (!(err = operand("b", host::OperandSlot::B, n, d.b)).empty()) return err;
  } else if (kind == "gemv") {
    const std::string arch = kv.count("arch") ? kv.at("arch") : "tree";
    if (!host::gemv_arch_from_name(arch, d.arch)) {
      return cat("node '", name, "': arch expects tree or col, got '", arch,
                 "'");
    }
    if (!(err = charge_elems(n * n + n, elems, limits)).empty()) return err;
    d.kind = host::OpKind::Gemv;
    d.placement = src;
    d.rows = d.cols = n;
    d.a = &req.pool.emplace_back(rng.matrix(n, n));
    if (!(err = operand("x", host::OperandSlot::X, n, d.x)).empty()) return err;
  } else {  // spmxv
    std::size_t nnz = 0;
    if (!(err = size_of("nnz", 4, nnz)).empty()) return err;
    if (!(err = check_dim(cat("node '", name, "': nnz").c_str(), nnz, limits))
             .empty()) {
      return err;
    }
    if (!(err = charge_elems(n * nnz + n, elems, limits)).empty()) return err;
    d.kind = host::OpKind::Spmxv;
    d.rows = d.cols = n;
    d.sparse =
        &req.sparse_pool.emplace_back(blas2::make_uniform_sparse(n, n, nnz, 7));
    if (!(err = operand("x", host::OperandSlot::X, n, d.x)).empty()) return err;
  }
  req.graph.nodes.push_back(std::move(node));
  return "";
}

/// Note an engine-knob override: an explicit flag whose value differs from
/// what the line would have used without it. The CLI honors these with a
/// per-job Context; the server (one shared Runtime, one engine config per
/// process) sheds them with an explicit error record.
template <typename T>
void note_override(Request& req, const char* flag, T got, T dflt) {
  if (req.cfg_override || got == dflt) return;
  req.cfg_override = true;
  req.cfg_override_why =
      cat("--", flag, " ", got, " differs from the configured ", dflt,
          " (per-op engine config is a batch-mode feature; the server's "
          "engine knobs are fixed at startup)");
}

}  // namespace

bool is_record_line(std::string_view line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c != '#';
  }
  return false;  // blank
}

void parse_record(std::string_view text, std::size_t line_no,
                  const host::ContextConfig& base, Request& req,
                  const ParseLimits& limits) {
  req.line = line_no;
  req.cfg = base;
  std::size_t elems = 0;  // doubles this line wants to materialize

  std::istringstream ss{std::string(text)};
  std::vector<std::string> tokens;
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  if (tokens.empty() || tokens.front().front() == '#') {
    req.parse_error = "not a record line";
    return;
  }

  req.command = tokens.front();
  const auto flags = kOpFlags.find(req.command);
  if (flags == kOpFlags.end()) {
    req.parse_error = cat("batch supports dot/gemv/gemm/spmxv/graph, got '",
                          req.command, "'");
    return;
  }
  req.is_graph = req.command == "graph";
  tokens.erase(tokens.begin());

  std::vector<std::string> specs;
  if (req.is_graph) {
    // Node specs (no leading --) come first; flags follow.
    std::size_t i = 0;
    while (i < tokens.size() && tokens[i].rfind("--", 0) != 0) {
      specs.push_back(tokens[i++]);
    }
    tokens.erase(tokens.begin(), tokens.begin() + static_cast<std::ptrdiff_t>(i));
  }

  LineArgs la;
  parse_flags(tokens, req.command, flags->second, la);
  if (!la.error.empty()) {
    req.parse_error = la.error;
    return;
  }

  req.seed = static_cast<u64>(la.integer("seed", 2005));
  if (!la.error.empty()) {
    req.parse_error = la.error;
    return;
  }
  Rng rng(req.seed);
  const auto src = la.flag("from-dram") ? host::Placement::Dram
                                        : host::Placement::Sram;

  if (req.is_graph) {
    if (specs.empty()) {
      req.parse_error = "graph needs at least one name=kind[:opts] node";
      return;
    }
    if (specs.size() > limits.max_graph_nodes) {
      req.parse_error = cat("graph has ", specs.size(),
                            " nodes, exceeding the per-line limit ",
                            limits.max_graph_nodes);
      return;
    }
    for (const auto& spec : specs) {
      req.parse_error = add_graph_node(spec, src, rng, req, limits, elems);
      if (!req.parse_error.empty()) return;
    }
    req.n = req.graph.nodes.size();
    return;
  }

  if (req.command == "dot") {
    req.n = static_cast<std::size_t>(la.integer("n", 4096));
    const auto k = static_cast<unsigned>(la.integer("k", base.dot_k));
    const double bw = la.num("bw-gbs", base.dot_mem_bytes_per_s / 1e9);
    if (!la.error.empty()) {
      req.parse_error = la.error;
      return;
    }
    req.parse_error = check_dim("--n", req.n, limits);
    if (req.parse_error.empty()) {
      req.parse_error = charge_elems(2 * req.n, elems, limits);
    }
    if (!req.parse_error.empty()) return;
    if (la.explicit_flag("k")) note_override(req, "k", k, base.dot_k);
    if (la.explicit_flag("bw-gbs")) {
      note_override(req, "bw-gbs", bw, base.dot_mem_bytes_per_s / 1e9);
    }
    req.cfg.dot_k = k;
    req.cfg.dot_mem_bytes_per_s = bw * 1e9;
    auto& a = req.pool.emplace_back(rng.vector(req.n));
    auto& b = req.pool.emplace_back(rng.vector(req.n));
    req.desc = host::OpDesc::dot(a, b, src);
  } else if (req.command == "gemv") {
    req.n = static_cast<std::size_t>(la.integer("n", 1024));
    const auto k = static_cast<unsigned>(la.integer("k", base.gemv_k));
    const std::string arch = la.str("arch", "tree");
    if (!la.error.empty()) {
      req.parse_error = la.error;
      return;
    }
    host::GemvArch gemv_arch = host::GemvArch::Tree;
    if (!host::gemv_arch_from_name(arch, gemv_arch)) {
      req.parse_error = cat("--arch expects tree or col, got '", arch, "'");
      return;
    }
    req.parse_error = check_dim("--n", req.n, limits);
    if (req.parse_error.empty()) {
      req.parse_error = charge_elems(req.n * req.n + req.n, elems, limits);
    }
    if (!req.parse_error.empty()) return;
    if (la.explicit_flag("k")) note_override(req, "k", k, base.gemv_k);
    req.cfg.gemv_k = k;
    auto& a = req.pool.emplace_back(rng.matrix(req.n, req.n));
    auto& x = req.pool.emplace_back(rng.vector(req.n));
    req.desc = host::OpDesc::gemv(a, req.n, req.n, x, src, gemv_arch);
  } else if (req.command == "gemm") {
    req.n = static_cast<std::size_t>(la.integer("n", 256));
    const auto k = static_cast<unsigned>(la.integer("k", base.mm_k));
    const auto m = static_cast<unsigned>(la.integer("m", base.mm_m));
    // Default panel edge: the configured one, capped to the problem — the
    // plan layer derives the same edge from an uncapped mm_b, so this stays
    // a non-override (bit-identical either way).
    const auto b_dflt = static_cast<long long>(
        std::min<std::size_t>(base.mm_b, req.n));
    const auto b = static_cast<std::size_t>(la.integer("b", b_dflt));
    const auto l = static_cast<unsigned>(la.integer("l", base.mm_l));
    if (!la.error.empty()) {
      req.parse_error = la.error;
      return;
    }
    req.parse_error = check_dim("--n", req.n, limits);
    if (req.parse_error.empty()) {
      req.parse_error = charge_elems(2 * req.n * req.n, elems, limits);
    }
    if (!req.parse_error.empty()) return;
    if (la.explicit_flag("k")) note_override(req, "k", k, base.mm_k);
    if (la.explicit_flag("m")) note_override(req, "m", m, base.mm_m);
    if (la.explicit_flag("b")) {
      note_override(req, "b", b, static_cast<std::size_t>(b_dflt));
    }
    if (la.explicit_flag("l")) note_override(req, "l", l, base.mm_l);
    req.cfg.mm_k = k;
    req.cfg.mm_m = m;
    req.cfg.mm_b = b;
    req.cfg.mm_l = l;
    auto& a = req.pool.emplace_back(rng.matrix(req.n, req.n));
    auto& bb = req.pool.emplace_back(rng.matrix(req.n, req.n));
    req.desc = l > 1 ? host::OpDesc::gemm_multi(a, bb, req.n)
                     : host::OpDesc::gemm(a, bb, req.n);
  } else {  // spmxv
    req.n = static_cast<std::size_t>(la.integer("n", 1024));
    const auto nnz = static_cast<std::size_t>(la.integer("nnz-per-row", 16));
    const auto k = static_cast<unsigned>(la.integer("k", base.gemv_k));
    if (!la.error.empty()) {
      req.parse_error = la.error;
      return;
    }
    req.parse_error = check_dim("--n", req.n, limits);
    if (req.parse_error.empty()) {
      req.parse_error = check_dim("--nnz-per-row", nnz, limits);
    }
    if (req.parse_error.empty()) {
      req.parse_error = charge_elems(req.n * nnz + req.n, elems, limits);
    }
    if (!req.parse_error.empty()) return;
    if (la.explicit_flag("k")) note_override(req, "k", k, base.gemv_k);
    req.cfg.gemv_k = k;
    auto& m = req.sparse_pool.emplace_back(
        blas2::make_uniform_sparse(req.n, req.n, nnz, 7));
    auto& x = req.pool.emplace_back(rng.vector(req.n));
    req.desc = host::OpDesc::spmxv(m, x);
  }
}

bool read_bounded_line(std::istream& in, std::string& line, bool& truncated,
                       std::size_t max_line) {
  line.clear();
  truncated = false;
  using traits = std::istream::traits_type;
  traits::int_type c = in.get();
  if (traits::eq_int_type(c, traits::eof())) return false;
  for (; !traits::eq_int_type(c, traits::eof()); c = in.get()) {
    const char ch = traits::to_char_type(c);
    if (ch == '\n') break;
    if (line.size() < max_line) {
      line.push_back(ch);
    } else {
      truncated = true;
    }
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::string oversize_error(std::size_t max_line) {
  return cat("line exceeds ", max_line, " bytes (truncated; record dropped)");
}

u64 values_fnv(const std::vector<double>& values, u64 h) {
  for (const double v : values) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (unsigned i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

u64 values_fnv(const std::vector<double>& values) {
  return values_fnv(values, kFnvBasis);
}

namespace {

std::string fnv_hex(u64 h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

void record_head(telemetry::JsonWriter& w, const Request& req) {
  w.begin_object();
  w.kv("op", req.command);
  w.kv("line", static_cast<u64>(req.line));
  w.kv("n", static_cast<u64>(req.n));
}

}  // namespace

std::string outcome_record(const Request& req, const host::Outcome& out) {
  telemetry::JsonWriter w;
  record_head(w, req);
  if (req.desc.kind == host::OpKind::Dot) w.kv("value", out.values.at(0));
  w.kv("values_fnv", fnv_hex(values_fnv(out.values)));
  w.key("report");
  w.raw(telemetry::report_to_json(out.report));
  w.end_object();
  return w.str();
}

std::string graph_record(const Request& req, const host::GraphOutcome& out) {
  // One record for the whole graph: a named result per node (each report in
  // its own clock domain) plus the fusion counters and the aggregate
  // report, mirroring host::GraphOutcome. The record-level values_fnv
  // digests every node's values in node order, so a client can assert
  // bit-identity of the whole graph with one comparison.
  telemetry::JsonWriter w;
  record_head(w, req);
  u64 all = kFnvBasis;
  w.key("nodes");
  w.begin_array();
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    const auto& nd = req.graph.nodes[i];
    w.begin_object();
    w.kv("name", nd.name);
    w.kv("kind", host::op_kind_name(nd.desc.kind));
    if (nd.desc.kind == host::OpKind::Dot) {
      w.kv("value", out.nodes[i].values.at(0));
    }
    w.kv("values_fnv", fnv_hex(values_fnv(out.nodes[i].values)));
    all = values_fnv(out.nodes[i].values, all);
    w.kv("staging_saved_cycles", out.node_staging_saved[i]);
    w.key("report");
    w.raw(telemetry::report_to_json(out.nodes[i].report));
    w.end_object();
  }
  w.end_array();
  w.kv("fused_edges", out.fused_edges);
  w.kv("shared_operands", out.shared_operands);
  w.kv("staging_saved_cycles", out.staging_saved_cycles);
  w.kv("values_fnv", fnv_hex(all));
  w.key("report");
  w.raw(telemetry::report_to_json(out.report));
  w.end_object();
  return w.str();
}

std::string error_record(const Request& req, std::string_view message) {
  telemetry::JsonWriter w;
  record_head(w, req);
  w.kv("error", message);
  w.end_object();
  return w.str();
}

std::string overload_record(std::size_t line_no) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("line", static_cast<u64>(line_no));
  w.kv("error", std::string_view("overloaded"));
  w.end_object();
  return w.str();
}

}  // namespace xd::serve
