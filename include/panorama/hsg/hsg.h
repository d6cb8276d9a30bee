// The Hierarchical Supergraph (§4): per-procedure flow graphs whose nodes
// are basic blocks, IF-condition nodes, compound loop nodes (each with an
// attached body subgraph, back edge deliberately removed), call nodes, and
// condensed nodes (irreducible backward-GOTO cycles, §5.4). Call nodes
// reference the callee's flow graph by name; a flow graph is built once per
// routine, never duplicated per call site — exactly the paper's structure.
//
// Under the §4 assumptions (no recursion; backward-GOTO cycles condensed;
// premature loop exits marked), every graph here is a DAG with a unique
// entry and exit.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "panorama/ast/sema.h"

namespace panorama {

struct HsgGraph;

struct HsgNode {
  enum class Kind : std::uint8_t {
    Entry,      ///< unique source
    Exit,       ///< unique sink
    Block,      ///< straight-line simple statements
    Cond,       ///< an IF condition: succ[0] = true branch, succ[1] = false
    Loop,       ///< a DO loop with an attached body subgraph
    Call,       ///< a CALL statement
    Condensed,  ///< an SCC of backward GOTOs, summarized conservatively
  };

  Kind kind = Kind::Block;
  int id = -1;
  std::vector<int> succs;
  std::vector<int> preds;

  std::vector<const Stmt*> stmts;      // Block: the simple statements
  const Expr* cond = nullptr;          // Cond
  const Stmt* loopStmt = nullptr;      // Loop: the DO statement
  std::unique_ptr<HsgGraph> body;      // Loop: body subgraph
  bool prematureExit = false;          // Loop: a GOTO/RETURN leaves it early
  const Stmt* callStmt = nullptr;      // Call
  std::vector<const Stmt*> condensed;  // Condensed: every statement involved

  bool isTrueSucc(int succ) const { return kind == Kind::Cond && !succs.empty() && succs[0] == succ; }
};

struct HsgGraph {
  std::vector<std::unique_ptr<HsgNode>> nodes;
  int entry = -1;
  int exit = -1;

  HsgNode& node(int id) { return *nodes[static_cast<std::size_t>(id)]; }
  const HsgNode& node(int id) const { return *nodes[static_cast<std::size_t>(id)]; }

  /// Topological order (entry first). Requires the graph to be a DAG — true
  /// after condensation.
  std::vector<int> topoOrder() const;
  /// Verifies acyclicity (post-condensation invariant).
  bool isDag() const;

  std::string str(int indent = 0) const;
};

struct ProcedureHsg {
  const Procedure* proc = nullptr;
  HsgGraph graph;
};

struct Hsg {
  std::map<std::string, ProcedureHsg> procs;

  const ProcedureHsg& of(const Procedure& p) const { return procs.at(p.name); }
};

/// Builds the HSG for a whole program. Reports structural problems (e.g. a
/// GOTO into a sibling construct) into `diags`; best-effort graphs are still
/// produced with conservative condensation.
Hsg buildHsg(const Program& program, DiagnosticEngine& diags);

/// Builds the flow graph of a single procedure (its nodes hold `const Stmt*`
/// into the procedure body). The incremental session calls it only for the
/// procedures a submit re-summarizes; clean ones need no graph, because
/// their summaries are seeded into the memo.
ProcedureHsg buildProcedureHsg(const Procedure& proc, DiagnosticEngine& diags);

/// Condenses every non-trivial strongly connected component of `g` into a
/// Condensed node (Tarjan). Exposed for testing; buildHsg applies it.
void condenseCycles(HsgGraph& g);

}  // namespace panorama
