// Op-graph layer: a small DAG of OpDescs with value dependencies.
//
// A GraphDesc generalizes the single-op descriptor to a handful of nodes
// (each an ordinary OpDesc) connected by edges that say "this node's result
// vector is that node's operand". The plan layer partitions the DAG into
// fusable chains whose intermediates stay SRAM-resident instead of
// round-tripping through DRAM (see plan.hpp / docs/runtime.md "Graph plans
// & fusion"); the runtime executes the nodes in topological order with
// producer results forwarded in place of the staged operands.
//
// An edge-fed operand slot leaves its pointer in the node's OpDesc null —
// the runtime patches in the producer's value vector before the engine
// runs. All other operands follow the usual OpDesc contract (caller-owned,
// alive until the GraphOutcome / future is consumed).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "host/op.hpp"

namespace xd::host {

/// Which operand of the consumer an edge feeds. Slots map onto the OpDesc
/// pointer fields: A -> desc.a, B -> desc.b, X -> desc.x.
enum class OperandSlot { A, B, X };

const char* operand_slot_name(OperandSlot slot);
bool operand_slot_from_name(std::string_view name, OperandSlot& out);

struct GraphNode {
  std::string name;   ///< optional label (CLI record form); "" = node index
  OpDesc desc;        ///< edge-fed slots may leave their pointer null
  /// The host needs this node's values after the graph completes. A kept
  /// DRAM-placed result still pays its writeback staging even when an edge
  /// also forwards it on-chip; a non-kept intermediate skips the writeback.
  bool keep = true;
};

struct GraphEdge {
  std::size_t from = 0;       ///< producer node index
  std::size_t to = 0;         ///< consumer node index
  OperandSlot slot = OperandSlot::A;
};

/// Element count of the value vector a node produces (1 for dot, rows for
/// gemv/spmxv, batch for dot-batch, n*n for the gemms).
std::size_t op_output_len(const OpDesc& desc);

/// The OpDesc pointer field an operand slot maps onto.
const std::vector<double>* slot_pointer(const OpDesc& desc, OperandSlot slot);
const std::vector<double>*& slot_pointer(OpDesc& desc, OperandSlot slot);

/// Expected element count of an operand slot, or 0 if the op has no such
/// slot (e.g. X on a dot, A on a spmxv — the sparse matrix is not fusable).
std::size_t op_slot_len(const OpDesc& desc, OperandSlot slot);

/// A DAG of operations. Nodes are listed in any order; validate() checks
/// acyclicity and topo_order() yields a dependency-respecting execution
/// order (stable: among ready nodes, lowest index first — execution and
/// planning are deterministic).
struct GraphDesc {
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;

  /// Structural validation, value-free: edge indices in range, no
  /// self-edges or duplicate (to, slot) pairs, the DAG property, every
  /// edge-fed slot exists on its consumer with a shape matching the
  /// producer's output length, every non-edge-fed operand present (each
  /// node's OpDesc::validate() with edge-fed slots exempted until the
  /// runtime patches them). Throws ConfigError.
  void validate() const;

  /// Topological order (throws ConfigError on a cycle).
  std::vector<std::size_t> topo_order() const;

  /// Value-independent structural signature: kinds, shapes, placements,
  /// archs, keep flags, edges, and the operand-sharing pattern (which slots
  /// alias the same external vector — sharing changes the plan, so it must
  /// key the cache). Two graphs with equal signatures plan identically.
  std::string signature() const;
};

/// Result of a graph run: one Outcome per node (same order as
/// GraphDesc::nodes, each report in its own clock domain), plus an
/// aggregate report normalized into node 0's clock domain the same way
/// solver::cg absorbs dot cycles into the GEMV clock.
struct GraphOutcome {
  std::vector<Outcome> nodes;
  PerfReport report;

  u64 fused_edges = 0;           ///< edges forwarded on-chip (not re-staged)
  u64 shared_operands = 0;       ///< chain-shared external stagings avoided
  u64 staging_saved_cycles = 0;  ///< vs per-op execution, aggregate clock
  double staging_saved_words = 0.0;
  /// Per node (GraphDesc order): staging cycles fusion saved that node vs
  /// its single-op plan, in the node's own clock domain.
  std::vector<u64> node_staging_saved;
};

}  // namespace xd::host
