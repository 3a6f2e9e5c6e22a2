// Phase spans: named [begin, end) cycle intervals over a run.
//
// The paper's experiments decompose every latency into phases (Table 4's
// staging-vs-compute split); spans are how the simulator records that
// decomposition. Engines and the host layer know each phase's length once
// their cycle loop or traffic model has run, so spans are only ever
// appended whole:
//
//   - phase(name, cycles): append a closed span of known length at the
//     cursor and advance it.
//   - merge_from(other, lane): splice another recorder's spans onto a lane,
//     the way the runtime folds worker shards into the caller's session.
//
// The cursor tracks the end of the timeline so sequentially recorded phases
// tile it without gaps; total_cycles(name) sums all spans of one name, which
// is what reports and the exporters aggregate.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/util.hpp"

namespace xd::telemetry {

struct Span {
  std::string name;
  u64 begin = 0;
  u64 end = 0;  ///< exclusive
  /// Which execution lane recorded the span: 0 is the recorder's own
  /// timeline (the synchronous path); merged worker shards land on lane
  /// worker-id + 1. The Chrome exporter renders one track per lane, so a
  /// concurrent batch shows as parallel per-worker tracks.
  unsigned lane = 0;
  u64 cycles() const { return end - begin; }
};

class SpanRecorder {
 public:
  /// Append a closed span of `cycles` at the cursor and advance it.
  void phase(std::string_view name, u64 cycles);

  /// Append every span of `other` onto `lane`'s timeline. Each
  /// incoming span keeps its shape but is offset by the lane's cursor, so
  /// successive merges tile the lane the way sequential phase() calls tile
  /// lane 0; the lane cursor then advances past the merged run. Lane 0 is
  /// this recorder's own timeline (merging there is equivalent to having
  /// recorded the spans directly).
  void merge_from(const SpanRecorder& other, unsigned lane);

  /// End of the recorded timeline; phases append here.
  u64 cursor() const { return cursor_; }

  /// End of a merge lane's timeline (lane 0 == cursor()).
  u64 lane_cursor(unsigned lane) const;

  /// All spans, ordered by (begin, lane) — timeline order.
  std::vector<Span> spans() const;

  /// Sum of cycles over the spans named `name`.
  u64 total_cycles(std::string_view name) const;

  std::size_t completed() const { return done_.size(); }
  bool empty() const { return done_.empty(); }
  void clear();

 private:
  std::vector<Span> done_;
  u64 cursor_ = 0;
  std::vector<u64> lane_cursors_;  ///< per-lane merge cursors, lanes >= 1
};

}  // namespace xd::telemetry
