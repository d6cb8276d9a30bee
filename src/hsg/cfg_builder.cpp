// Flow-graph construction from the structured AST plus GOTO resolution.
//
// Each nesting level (procedure body, loop body) is lowered independently:
// statements become nodes with fallthrough edges, IF statements become
// condition nodes (the paper keeps each IF condition in its own node) with
// branch subchains joining afterwards, and GOTOs are resolved in a second
// pass against the labels of the same level. A GOTO whose target lives in an
// enclosing level is a premature exit: the edge is routed to this level's
// exit and every loop between source and target is marked `prematureExit`.
#include <algorithm>
#include <unordered_map>

#include "panorama/hsg/hsg.h"

namespace panorama {

namespace {

class LevelBuilder {
 public:
  /// `outerLabels` maps labels visible in enclosing levels (for premature
  /// exit detection only).
  LevelBuilder(const std::vector<StmtPtr>& stmts, const std::vector<int>* outerLabels,
               DiagnosticEngine& diags)
      : stmts_(stmts), outerLabels_(outerLabels), diags_(diags) {}

  std::unique_ptr<HsgGraph> build(bool& sawPrematureExit) {
    graph_ = std::make_unique<HsgGraph>();
    graph_->entry = newNode(HsgNode::Kind::Entry);
    graph_->exit = newNode(HsgNode::Kind::Exit);

    int tail = graph_->entry;  // node wanting a fallthrough edge; -1 if none
    for (const StmtPtr& s : stmts_) tail = lowerStmt(*s, tail);
    if (tail >= 0) addEdge(tail, graph_->exit);

    resolveGotos();
    sawPrematureExit = sawPrematureExit_;
    condenseCycles(*graph_);
    return std::move(graph_);
  }

 private:
  int newNode(HsgNode::Kind kind) {
    auto n = std::make_unique<HsgNode>();
    n->kind = kind;
    n->id = static_cast<int>(graph_->nodes.size());
    graph_->nodes.push_back(std::move(n));
    return static_cast<int>(graph_->nodes.size()) - 1;
  }

  void addEdge(int from, int to) {
    HsgNode& f = graph_->node(from);
    if (std::find(f.succs.begin(), f.succs.end(), to) == f.succs.end() ||
        f.kind == HsgNode::Kind::Cond) {
      f.succs.push_back(to);
      graph_->node(to).preds.push_back(from);
    }
  }

  void registerLabel(int label, int nodeId) {
    if (label == 0) return;
    if (!labelNode_.emplace(label, nodeId).second)
      diags_.error({}, "duplicate statement label " + std::to_string(label));
  }

  /// Lowers one statement. `tail` is the node whose fallthrough edge is
  /// pending (-1 after a GOTO/RETURN). Returns the new pending tail.
  int lowerStmt(const Stmt& s, int tail) {
    // A labeled statement is a join target: it must start a fresh node.
    switch (s.kind) {
      case Stmt::Kind::Assign:
      case Stmt::Kind::Continue: {
        int block;
        if (tail >= 0 && s.label == 0 && graph_->node(tail).kind == HsgNode::Kind::Block) {
          block = tail;  // extend the current basic block
        } else {
          block = newNode(HsgNode::Kind::Block);
          if (tail >= 0) addEdge(tail, block);
        }
        graph_->node(block).stmts.push_back(&s);
        registerLabel(s.label, block);
        return block;
      }
      case Stmt::Kind::Goto: {
        int node = newNode(HsgNode::Kind::Block);
        graph_->node(node).stmts.push_back(&s);
        if (tail >= 0) addEdge(tail, node);
        registerLabel(s.label, node);
        pendingGotos_.push_back({node, s.gotoLabel});
        return -1;  // no fallthrough
      }
      case Stmt::Kind::Return:
      case Stmt::Kind::Stop: {
        int node = newNode(HsgNode::Kind::Block);
        graph_->node(node).stmts.push_back(&s);
        if (tail >= 0) addEdge(tail, node);
        registerLabel(s.label, node);
        addEdge(node, graph_->exit);
        returnNodes_.push_back(node);
        return -1;
      }
      case Stmt::Kind::Call: {
        int node = newNode(HsgNode::Kind::Call);
        graph_->node(node).callStmt = &s;
        if (tail >= 0) addEdge(tail, node);
        registerLabel(s.label, node);
        return node;
      }
      case Stmt::Kind::Do: {
        int node = newNode(HsgNode::Kind::Loop);
        HsgNode& loop = graph_->node(node);
        loop.loopStmt = &s;
        std::vector<int> visible;
        for (const auto& [lbl, id] : labelNode_) visible.push_back(lbl);
        // Labels of enclosing levels stay visible for premature-exit checks.
        if (outerLabels_)
          visible.insert(visible.end(), outerLabels_->begin(), outerLabels_->end());
        // Labels later in this level are also legitimate premature-exit
        // targets; collect every label of the whole level.
        collectLevelLabels(visible);
        bool premature = false;
        loop.body = LevelBuilder(s.body, &visible, diags_).build(premature);
        loop.prematureExit = premature || bodyReturns(*loop.body);
        if (tail >= 0) addEdge(tail, node);
        registerLabel(s.label, node);
        return node;
      }
      case Stmt::Kind::If: {
        int condNode = newNode(HsgNode::Kind::Cond);
        graph_->node(condNode).cond = s.cond.get();
        if (tail >= 0) addEdge(tail, condNode);
        registerLabel(s.label, condNode);
        int join = newNode(HsgNode::Kind::Block);  // empty join block

        // True branch: succs[0].
        int tTail = condNode;
        bool first = true;
        for (const StmtPtr& c : s.thenBody) {
          int next = lowerBranchStmt(*c, tTail, first, condNode, /*branchTrue=*/true);
          first = false;
          tTail = next;
        }
        if (s.thenBody.empty()) addEdge(condNode, join);
        else if (tTail >= 0) addEdge(tTail, join);

        // False branch: succs[1].
        int fTail = condNode;
        first = true;
        for (const StmtPtr& c : s.elseBody) {
          int next = lowerBranchStmt(*c, fTail, first, condNode, /*branchTrue=*/false);
          first = false;
          fTail = next;
        }
        if (s.elseBody.empty()) addEdge(condNode, join);
        else if (fTail >= 0) addEdge(fTail, join);
        return join;
      }
    }
    return tail;
  }

  /// Lowers the first/branch statements of an IF arm. The first statement of
  /// an arm must NOT merge into the condition node's preceding block, so it
  /// always opens fresh nodes.
  int lowerBranchStmt(const Stmt& s, int tail, bool first, int condNode, bool branchTrue) {
    (void)branchTrue;
    if (!first) return lowerStmt(s, tail);
    // Force a fresh node: temporarily lower with tail = -1 and wire manually.
    std::size_t before = graph_->nodes.size();
    int newTail = lowerStmt(s, -1);
    // The first node created for this statement is the branch head.
    if (graph_->nodes.size() > before) {
      int head = static_cast<int>(before);
      addEdge(condNode, head);
    } else {
      // No node was created (cannot happen with current kinds); fall back.
      addEdge(condNode, graph_->exit);
    }
    return newTail;
  }

  void collectLevelLabels(std::vector<int>& out) const {
    std::function<void(const std::vector<StmtPtr>&)> walk = [&](const std::vector<StmtPtr>& body) {
      for (const StmtPtr& s : body) {
        if (s->label != 0) out.push_back(s->label);
        walk(s->thenBody);
        walk(s->elseBody);
        // Do NOT descend into nested loops: jumping into a loop is illegal.
      }
    };
    walk(stmts_);
  }

  bool bodyReturns(const HsgGraph& g) const {
    for (const auto& n : g.nodes) {
      for (const Stmt* st : n->stmts)
        if (st->kind == Stmt::Kind::Return || st->kind == Stmt::Kind::Stop) return true;
      if (n->body && bodyReturns(*n->body)) return true;
    }
    return false;
  }

  void resolveGotos() {
    for (const auto& [node, label] : pendingGotos_) {
      auto it = labelNode_.find(label);
      if (it != labelNode_.end()) {
        addEdge(node, it->second);
        continue;
      }
      bool outer = outerLabels_ && std::find(outerLabels_->begin(), outerLabels_->end(),
                                             label) != outerLabels_->end();
      if (outer) {
        // Premature exit from this level: route to the exit, flag the level.
        addEdge(node, graph_->exit);
        sawPrematureExit_ = true;
      } else {
        diags_.error({}, "GOTO to unknown label " + std::to_string(label));
        addEdge(node, graph_->exit);
      }
    }
  }

  const std::vector<StmtPtr>& stmts_;
  const std::vector<int>* outerLabels_;
  DiagnosticEngine& diags_;
  std::unique_ptr<HsgGraph> graph_;
  std::unordered_map<int, int> labelNode_;
  std::vector<std::pair<int, int>> pendingGotos_;  // (node, target label)
  std::vector<int> returnNodes_;
  bool sawPrematureExit_ = false;
};

}  // namespace

ProcedureHsg buildProcedureHsg(const Procedure& proc, DiagnosticEngine& diags) {
  bool premature = false;
  ProcedureHsg ph;
  ph.proc = &proc;
  auto g = LevelBuilder(proc.body, nullptr, diags).build(premature);
  ph.graph = std::move(*g);
  return ph;
}

Hsg buildHsg(const Program& program, DiagnosticEngine& diags) {
  Hsg hsg;
  for (const Procedure& proc : program.procedures)
    hsg.procs.emplace(proc.name, buildProcedureHsg(proc, diags));
  return hsg;
}

}  // namespace panorama
