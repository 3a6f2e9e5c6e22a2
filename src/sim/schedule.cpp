#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "fp/backend.hpp"
#include "reduce/reduction_circuit.hpp"
#include "sim/scratch.hpp"

namespace xd::sim {

namespace vo = reduce::value_op;

std::size_t Schedule::bytes() const {
  return sizeof(Schedule) + programs.capacity() * sizeof(Program) +
         code.capacity() * sizeof(u32) +
         program_runs.capacity() * sizeof(program_runs[0]) +
         set_runs.capacity() * sizeof(set_runs[0]) +
         fragment.size() * sizeof(telemetry::Metric);
}

void ScheduleSlot::publish(std::unique_ptr<Schedule> s) {
  owned_ = std::move(s);
  published_.store(owned_.get(), std::memory_order_release);
}

ScheduleRecorder::ScheduleRecorder(ScheduleSlot* slot, const TreeScratch& scratch) {
  if (slot && scratch.key.k <= fp::kMaxMacLanes && !slot->get() && slot->claim()) {
    slot_ = slot;
    sched_ = std::make_unique<Schedule>();
    sched_->registers = 2ull * scratch.red.alpha() * scratch.red.alpha();
  }
}

ScheduleRecorder::~ScheduleRecorder() {
  if (sched_) slot_->abandon();
}

namespace {

constexpr std::size_t kNoSet = ~std::size_t{0};
constexpr u32 kNoProgram = ~u32{0};

/// Walks an interleaved op log in issue order and names each op's set: a
/// Direct or Fold takes the set of the input it consumes, and every register
/// belongs to the set whose Direct wrote it last.
class SetWalk {
 public:
  explicit SetWalk(const Schedule& s) : s_(s), owner_(s.registers, kNoSet) {}

  /// The set `op` belongs to; throws SimError where the op breaks the
  /// one-set-per-op rule (see ScheduleRecorder::publish).
  std::size_t set_of(u32 op) {
    const u32 a = vo::first(op);
    const vo::Kind kind = vo::kind(op);
    if (a >= s_.registers || (kind == vo::Drain && vo::second(op) >= s_.registers)) {
      fail("register out of range");
    }
    std::size_t set = kNoSet;
    switch (kind) {
      case vo::Direct:
      case vo::Fold:
        if (next_ == s_.inputs) fail("the ops overrun the input stream");
        while (next_ >= set_end_) set_end_ += next_set_inputs();
        ++next_;
        set = started_ - 1;
        if (kind == vo::Direct) {
          owner_[a] = set;
        } else if (owner_[a] != set) {
          fail("a Fold adds into another set's register");
        }
        break;
      case vo::Drain:
        set = owner_[a];
        if (set == kNoSet || owner_[vo::second(op)] != set) {
          fail("a Drain pairs two sets' registers");
        }
        break;
      case vo::Emit:
        set = emitted_ + vo::second(op) - vo::kEmitBias;
        if (set >= s_.sets || owner_[a] != set) {
          fail("an Emit names a set out of range or another set's register");
        }
        ++emitted_;
        break;
    }
    return set;
  }

  std::size_t consumed() const { return next_; }
  std::size_t emitted() const { return emitted_; }

  [[noreturn]] static void fail(const char* what) {
    throw SimError(cat("schedule recorder: ", what));
  }

 private:
  /// Start the next set (in input order) and return its input count.
  std::size_t next_set_inputs() {
    if (run_left_ == 0) run_left_ = s_.set_runs[run_++].second;
    --run_left_;
    ++started_;
    return (s_.set_runs[run_ - 1].first + s_.k - 1) / s_.k;
  }

  const Schedule& s_;
  std::vector<std::size_t> owner_;
  std::size_t next_ = 0, emitted_ = 0;
  /// Sets [0, started_) have begun; the last of them ends before input
  /// set_end_. run_left_ more sets of set_runs[run_ - 1] follow it.
  std::size_t started_ = 0, set_end_ = 0, run_ = 0, run_left_ = 0;
};

/// The sets a log has started and not yet emitted, each building its
/// program: its ops so far with registers renamed by first use, and how
/// many registers it has named.
class OpenSets {
 public:
  struct Set {
    std::vector<u32> ops;
    u32 inputs = 0, registers = 0;
    bool closed = false;
  };

  explicit OpenSets(std::size_t registers) : local_(registers, {kNoSet, 0}) {}

  /// Append `op` of set `set` (not yet closed) with its registers renamed.
  Set& append(std::size_t set, u32 op) {
    while (set >= base_ + open_.size()) open_.emplace_back();
    Set& o = open_[set - base_];
    const vo::Kind kind = vo::kind(op);
    const u32 a = rename(o, set, vo::first(op));
    const u32 b = kind == vo::Drain ? rename(o, set, vo::second(op)) : 0;
    o.inputs += kind == vo::Direct || kind == vo::Fold;
    o.ops.push_back(vo::encode(kind, a, b));
    return o;
  }

  /// Set `set` has emitted: its ops are freed at once, its entry once every
  /// earlier set has emitted too.
  void close(std::size_t set) {
    Set& o = open_[set - base_];
    std::vector<u32>().swap(o.ops);
    o.closed = true;
    while (!open_.empty() && open_.front().closed) {
      open_.pop_front();
      ++base_;
    }
  }

 private:
  /// A register keeps its name while the set that named it owns it; once
  /// another set's Direct has taken it, the first set's next Direct to it
  /// names it afresh.
  u32 rename(Set& o, std::size_t set, u32 reg) {
    auto& [owner, name] = local_[reg];
    if (owner != set) {
      owner = set;
      name = o.registers++;
    }
    return name;
  }

  std::deque<Set> open_;
  std::size_t base_ = 0;  ///< the set open_.front() is
  std::vector<std::pair<std::size_t, u32>> local_;  ///< per register: (set, name)
};

/// Interns finished sets' renamed ops into s.programs. The code collects
/// in deque blocks, so its growth never copies it, and moves to s.code at
/// the end.
class ProgramTable {
 public:
  explicit ProgramTable(Schedule& s) : s_(s) {}

  u32 intern(const OpenSets::Set& o) {
    const u64 h = hash(o.ops);
    const u32 id = static_cast<u32>(s_.programs.size());
    const auto [it, fresh] = index_.try_emplace(h, id);
    if (!fresh) {
      const Program& p = s_.programs[it->second];
      if (std::equal(o.ops.begin(), o.ops.end(), code_.begin() + p.first,
                     code_.begin() + p.first + p.ops)) {
        return it->second;
      }
      // A hash collision: the new program stays out of the index.
    }
    s_.programs.push_back({static_cast<u32>(code_.size()),
                           static_cast<u32>(o.ops.size()), o.inputs,
                           o.registers});
    code_.insert(code_.end(), o.ops.begin(), o.ops.end());
    return id;
  }

  void finish() {
    s_.code.assign(code_.begin(), code_.end());
    std::deque<u32>().swap(code_);
  }

 private:
  static u64 hash(const std::vector<u32>& ops) {
    u64 h = 0xcbf29ce484222325ull;  // FNV-1a over the codes
    for (const u32 op : ops) h = (h ^ op) * 0x100000001b3ull;
    return h;
  }

  Schedule& s_;
  std::deque<u32> code_;
  std::unordered_map<u64, u32> index_;
};

}  // namespace

void ScheduleRecorder::publish() {
  Schedule& s = *sched_;
  if (s.k == 0) SetWalk::fail("no set shape");
  // One pass checks the log, names each op's set and builds each set's
  // program as its ops arrive; a set's ops after its Emit would break the
  // one-Emit-ends-a-program rule. The distinct programs never outgrow the
  // log, and their code is copied out only once the log is freed.
  std::vector<u32> program_of(s.sets, kNoProgram);
  ProgramTable table(s);
  {
    SetWalk walk(s);
    OpenSets open(s.registers);
    for (const u32 op : log_) {
      const std::size_t set = walk.set_of(op);
      if (program_of[set] != kNoProgram) SetWalk::fail("a set has ops after its Emit");
      const OpenSets::Set& o = open.append(set, op);
      if (vo::kind(op) == vo::Emit) {
        program_of[set] = table.intern(o);
        open.close(set);
      }
    }
    if (walk.consumed() != s.inputs || walk.emitted() != s.sets) {
      SetWalk::fail("the ops leave inputs or sets behind");
    }
  }
  std::vector<u32>().swap(log_);
  table.finish();
  for (const u32 p : program_of) {
    s.ops += s.programs[p].ops;
    if (!s.program_runs.empty() && s.program_runs.back().first == p) {
      ++s.program_runs.back().second;
    } else {
      s.program_runs.emplace_back(p, 1);
    }
  }
  for (const auto& [p, count] : s.program_runs) {
    const Program& prog = s.programs[p];
    const std::size_t lanes = count >= kLanes ? kLanes : 1;
    s.chunk_inputs = std::max<std::size_t>(s.chunk_inputs, lanes * prog.inputs);
    s.program_registers = std::max<std::size_t>(s.program_registers, prog.registers);
  }
  s.programs.shrink_to_fit();
  s.program_runs.shrink_to_fit();
  s.set_runs.shrink_to_fit();
  slot_->publish(std::move(sched_));
}

std::size_t replay_blocks(const Schedule& s) {
  const std::size_t blocks = s.ops / kMinBlockOps;
  if (blocks < 2) return 1;
  return std::min<std::size_t>(blocks, ThreadPool::shared().size());
}

std::size_t block_first_set(const Schedule& s, std::size_t b, std::size_t blocks) {
  const std::size_t target = s.ops * b / blocks;
  std::size_t set = 0, op = 0;
  for (const auto& [p, count] : s.program_runs) {
    const std::size_t per_set = s.programs[p].ops;
    if (op + count * per_set >= target) {
      // The first set of this run starting at or past target, then up to a
      // whole chunk from the run's start.
      const std::size_t i = (target - op + per_set - 1) / per_set;
      return set + std::min(count, (i + kLanes - 1) / kLanes * kLanes);
    }
    set += count;
    op += count * per_set;
  }
  return s.sets;
}

namespace {

/// The one replay loop: W sets, lane l's inputs at in[l * n ...], its
/// registers reg[r * W + l]. Inputs are consumed in order and the Emit
/// ends the program.
template <std::size_t W, typename Add>
void run_lanes(const u32* op, const u32* end, const u64* in, std::size_t n,
               double* out, u64* reg, Add&& add) {
  for (; op != end; ++op) {
    u64* ra = reg + vo::first(*op) * W;
    switch (vo::kind(*op)) {
      case vo::Direct:
        for (std::size_t l = 0; l < W; ++l) ra[l] = in[l * n];
        ++in;
        break;
      case vo::Fold:
        for (std::size_t l = 0; l < W; ++l) ra[l] = add(in[l * n], ra[l]);
        ++in;
        break;
      case vo::Drain: {
        const u64* rb = reg + vo::second(*op) * W;
        for (std::size_t l = 0; l < W; ++l) ra[l] = add(ra[l], rb[l]);
        break;
      }
      case vo::Emit:
        for (std::size_t l = 0; l < W; ++l) out[l] = fp::from_bits(ra[l]);
        break;
    }
  }
}

template <typename Add>
void run_width(std::size_t lanes, const u32* op, const u32* end, const u64* in,
               std::size_t n, double* out, u64* reg, Add&& add) {
  if (lanes == kLanes) {
    run_lanes<kLanes>(op, end, in, n, out, reg, add);
  } else {
    run_lanes<1>(op, end, in, n, out, reg, add);
  }
}

}  // namespace

void run_chunk(const Program& p, const u32* code, std::size_t lanes,
               const u64* in, double* out, u64* reg) {
  const u32* first = code + p.first;
  const u32* end = first + p.ops;
  const fp::Backend& be = fp::active_backend();
  if (be.kind == fp::BackendKind::Native) {
    // Plain host adds, as native_fold_n: finite operands round to the same
    // bits on any conforming host. A sum depends only on the values that
    // flow into it, and NaN and inf never turn back into finite values, so
    // a finite sum met no special operand on its way. A chunk with a
    // non-finite sum is redone through native_add, whose preamble
    // reproduces softfloat's NaN payloads and default NaN.
    run_width(lanes, first, end, in, p.inputs, out, reg, [](u64 x, u64 y) {
      return fp::to_bits(fp::from_bits(x) + fp::from_bits(y));
    });
    const auto finite = [](double x) { return std::isfinite(x); };
    if (std::all_of(out, out + lanes, finite)) [[likely]] return;
  }
  run_width(lanes, first, end, in, p.inputs, out, reg, be.add);
}

}  // namespace xd::sim
