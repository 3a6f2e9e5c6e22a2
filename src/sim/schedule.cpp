#include "sim/schedule.hpp"

#include "fp/backend.hpp"
#include "reduce/reduction_circuit.hpp"
#include "sim/scratch.hpp"

namespace xd::sim {

namespace vo = reduce::value_op;

std::size_t Schedule::bytes() const {
  return sizeof(Schedule) + ops.capacity() * sizeof(u32) +
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

void ScheduleRecorder::publish() {
  // Check once what replay relies on per op: every register in range, one
  // consumed input per tree output, one emit per set.
  Schedule& s = *sched_;
  std::size_t consumed = 0, emits = 0;
  for (const u32 op : s.ops) {
    const vo::Kind kind = vo::kind(op);
    bool ok = vo::first(op) < s.registers;
    if (kind == vo::Drain) ok &= vo::second(op) < s.registers;
    if (!ok) throw SimError("schedule recorder: register out of range");
    consumed += kind == vo::Direct || kind == vo::Fold;
    emits += kind == vo::Emit;
  }
  if (consumed != s.inputs || emits != s.sets) {
    throw SimError("schedule recorder: the op log does not cover the run");
  }
  s.ops.shrink_to_fit();
  s.set_runs.shrink_to_fit();
  slot_->publish(std::move(sched_));
}

void replay(const Schedule& s, TreeScratch& scratch, std::size_t staged,
            std::vector<double>& out) {
  if (staged != s.inputs || out.size() != s.sets) {
    throw SimError("schedule replay: the op's stream is not the recorded one");
  }
  // Registers, then one bit per set for the emitted-exactly-once check.
  scratch.regs.assign(s.registers + (s.sets + 63) / 64, 0);
  u64* reg = scratch.regs.data();
  u64* emitted = reg + s.registers;
  const u64* in = scratch.abits.data();
  const fp::Backend::Op add = fp::active_backend().add;
  std::size_t next = 0, done = 0;
  for (const u32 op : s.ops) {
    const u32 a = vo::first(op);
    switch (vo::kind(op)) {
      case vo::Direct:
        if (next == staged) throw SimError("schedule replay: input stream overrun");
        reg[a] = in[next++];
        break;
      case vo::Fold:
        if (next == staged) throw SimError("schedule replay: input stream overrun");
        reg[a] = add(in[next++], reg[a]);
        break;
      case vo::Drain:
        reg[a] = add(reg[a], reg[vo::second(op)]);
        break;
      case vo::Emit: {
        const std::size_t set = done + vo::second(op) - vo::kEmitBias;
        const u64 bit = u64{1} << (set % 64);
        if (set >= s.sets || (emitted[set / 64] & bit)) {
          throw SimError("schedule replay: a set is emitted twice or out of range");
        }
        emitted[set / 64] |= bit;
        out[set] = fp::from_bits(reg[a]);
        ++done;
        break;
      }
    }
  }
  if (next != staged || done != s.sets) {
    throw SimError("schedule replay: the ops left inputs or sets behind");
  }
}

}  // namespace xd::sim
