#include "sim/schedule.hpp"

#include <algorithm>

#include "fp/backend.hpp"
#include "reduce/reduction_circuit.hpp"
#include "sim/scratch.hpp"

namespace xd::sim {

namespace vo = reduce::value_op;

std::size_t Schedule::bytes() const {
  return sizeof(Schedule) + ops.capacity() * sizeof(u32) +
         (op_first.capacity() + input_first.capacity()) * sizeof(std::size_t) +
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
        while (next_ >= s_.input_first[input_set_ + 1]) ++input_set_;
        ++next_;
        set = input_set_;
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
  const Schedule& s_;
  std::vector<std::size_t> owner_;
  std::size_t next_ = 0, input_set_ = 0, emitted_ = 0;
};

}  // namespace

void ScheduleRecorder::publish() {
  Schedule& s = *sched_;
  if (s.input_first.size() != s.sets + 1) SetWalk::fail("no set shape");
  // Pass 1 checks the log and counts each set's ops; a set's ops after its
  // Emit would break the block kernel's one-Emit-ends-a-set rule.
  s.op_first.assign(s.sets + 1, 0);
  std::vector<bool> emitted(s.sets);
  {
    SetWalk walk(s);
    for (const u32 op : s.ops) {
      const std::size_t set = walk.set_of(op);
      if (emitted[set]) SetWalk::fail("a set has ops after its Emit");
      emitted[set] = vo::kind(op) == vo::Emit;
      ++s.op_first[set + 1];
    }
    if (walk.consumed() != s.inputs || walk.emitted() != s.sets) {
      SetWalk::fail("the ops leave inputs or sets behind");
    }
  }
  for (std::size_t i = 0; i < s.sets; ++i) s.op_first[i + 1] += s.op_first[i];
  // Pass 2 names the sets again and scatters the ops set-major: one extra
  // copy of the log, the recording buffer's slack freed with it. Set-major,
  // each Emit names the set after those already emitted, its own.
  std::vector<u32> sorted(s.ops.size());
  {
    std::vector<std::size_t> cursor(s.op_first.begin(), s.op_first.end() - 1);
    SetWalk walk(s);
    for (const u32 op : s.ops) {
      sorted[cursor[walk.set_of(op)]++] =
          vo::kind(op) == vo::Emit ? vo::encode(vo::Emit, vo::first(op), vo::kEmitBias)
                                   : op;
    }
  }
  s.ops.swap(sorted);
  s.set_runs.shrink_to_fit();
  slot_->publish(std::move(sched_));
}

std::size_t replay_blocks(const Schedule& s) {
  const std::size_t blocks = s.ops.size() / kMinBlockOps;
  if (blocks < 2) return 1;
  return std::min<std::size_t>(blocks, ThreadPool::shared().size());
}

std::size_t block_first_set(const Schedule& s, std::size_t b, std::size_t blocks) {
  const std::size_t target = s.ops.size() * b / blocks;
  return static_cast<std::size_t>(
      std::lower_bound(s.op_first.begin(), s.op_first.end(), target) -
      s.op_first.begin());
}

namespace {

/// The one replay loop. Inputs are consumed in order and each Emit ends
/// its set, so a block needs no per-set bookkeeping.
template <typename Add>
void run_ops(const u32* op, const u32* end, const u64* in, double* out,
             u64* reg, Add&& add) {
  for (; op != end; ++op) {
    const u32 a = vo::first(*op);
    switch (vo::kind(*op)) {
      case vo::Direct:
        reg[a] = *in++;
        break;
      case vo::Fold:
        reg[a] = add(*in++, reg[a]);
        break;
      case vo::Drain:
        reg[a] = add(reg[a], reg[vo::second(*op)]);
        break;
      case vo::Emit:
        *out++ = fp::from_bits(reg[a]);
        break;
    }
  }
}

}  // namespace

void replay_sets(const Schedule& s, const u64* in, std::size_t s0,
                 std::size_t s1, double* out, u64* reg) {
  const u32* first = s.ops.data() + s.op_first[s0];
  const u32* end = s.ops.data() + s.op_first[s1];
  const fp::Backend& be = fp::active_backend();
  if (be.kind == fp::BackendKind::Native) {
    // Plain host adds, as native_fold_n: finite operands round to the same
    // bits on any conforming host. NaN and inf never turn back into finite
    // values, so a block whose adds all came out finite saw no special
    // operand; otherwise it is redone through native_add, whose preamble
    // reproduces softfloat's NaN payloads and default NaN.
    bool special = false;
    run_ops(first, end, in, out, reg, [&special](u64 x, u64 y) {
      const u64 r = fp::to_bits(fp::from_bits(x) + fp::from_bits(y));
      special |= (~r & fp::kExpMask) == 0;
      return r;
    });
    if (!special) [[likely]] return;
  }
  run_ops(first, end, in, out, reg, be.add);
}

}  // namespace xd::sim
