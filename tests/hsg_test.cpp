// Tests for HSG construction: node kinds, branch wiring, loop subgraphs,
// GOTO resolution, premature exits, and SCC condensation.
#include <gtest/gtest.h>

#include "panorama/frontend/parser.h"
#include "panorama/hsg/hsg.h"

namespace panorama {
namespace {

struct Built {
  Program program;
  SemaResult sema;
  Hsg hsg;
};

Built build(std::string_view src) {
  Built b;
  DiagnosticEngine diags;
  auto p = parseProgram(src, diags);
  EXPECT_TRUE(p.has_value()) << diags.str();
  b.program = std::move(*p);
  auto r = analyze(b.program, diags);
  EXPECT_TRUE(r.has_value()) << diags.str();
  b.sema = std::move(*r);
  b.hsg = buildHsg(b.program, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
  return b;
}

int countKind(const HsgGraph& g, HsgNode::Kind k) {
  int n = 0;
  for (int id : g.topoOrder()) n += g.node(id).kind == k;
  return n;
}

TEST(HsgTest, StraightLineIsOneBlock) {
  Built b = build(R"(
      program p
      integer x, y
      x = 1
      y = 2
      x = x + y
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  EXPECT_EQ(countKind(g, HsgNode::Kind::Block), 1);
  auto order = g.topoOrder();
  ASSERT_EQ(order.size(), 3u);  // entry, block, exit
  EXPECT_EQ(g.node(order[1]).stmts.size(), 3u);
}

TEST(HsgTest, IfConditionGetsOwnNode) {
  Built b = build(R"(
      program p
      integer x
      if (x .gt. 0) then
        x = 1
      else
        x = 2
      endif
      x = 3
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  EXPECT_EQ(countKind(g, HsgNode::Kind::Cond), 1);
  // Find the cond node; true branch must be succs[0].
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind != HsgNode::Kind::Cond) continue;
    ASSERT_EQ(n.succs.size(), 2u);
    const HsgNode& t = g.node(n.succs[0]);
    ASSERT_EQ(t.stmts.size(), 1u);
    EXPECT_EQ(toString(*t.stmts[0]->rhs), "1");
    const HsgNode& f = g.node(n.succs[1]);
    EXPECT_EQ(toString(*f.stmts[0]->rhs), "2");
  }
}

TEST(HsgTest, LoopNodeHasBodySubgraph) {
  Built b = build(R"(
      program p
      real a(10)
      do i = 1, 10
        a(i) = i
      enddo
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_EQ(countKind(g, HsgNode::Kind::Loop), 1);
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind != HsgNode::Kind::Loop) continue;
    ASSERT_TRUE(n.body != nullptr);
    EXPECT_TRUE(n.body->isDag());
    EXPECT_FALSE(n.prematureExit);
    EXPECT_EQ(countKind(*n.body, HsgNode::Kind::Block), 1);
  }
}

TEST(HsgTest, NestedLoops) {
  Built b = build(R"(
      program p
      real a(10,10)
      do i = 1, 10
        do j = 1, 10
          a(i,j) = 0
        enddo
      enddo
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind == HsgNode::Kind::Loop) {
      EXPECT_EQ(n.loopStmt->doVar, "i");
      EXPECT_EQ(countKind(*n.body, HsgNode::Kind::Loop), 1);
    }
  }
}

TEST(HsgTest, CallNode) {
  Built b = build(R"(
      program p
      real a(10)
      call f(a)
      end
      subroutine f(b)
      real b(10)
      b(1) = 0
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_EQ(countKind(g, HsgNode::Kind::Call), 1);
  EXPECT_EQ(b.hsg.procs.size(), 2u);
}

TEST(HsgTest, ForwardGotoBranches) {
  // The Figure 1(a) tail: IF (kc.NE.0) goto 2 ... 2: continue.
  Built b = build(R"(
      program p
      integer kc
      real t(20)
      if (kc .ne. 0) goto 2
      t(1) = 1
 2    continue
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  EXPECT_EQ(countKind(g, HsgNode::Kind::Condensed), 0);
  // The goto node must reach the labeled continue directly.
  bool found = false;
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.stmts.size() == 1 && n.stmts[0]->kind == Stmt::Kind::Goto) {
      ASSERT_EQ(n.succs.size(), 1u);
      const HsgNode& target = g.node(n.succs[0]);
      ASSERT_FALSE(target.stmts.empty());
      EXPECT_EQ(target.stmts[0]->label, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(HsgTest, GotoToLoopEndLabel) {
  // Figure 1(a)'s inner loop: IF (...) goto 1 / A(K+4)=... / 1: ENDDO-style
  // (labeled DO closed by "1 continue").
  Built b = build(R"(
      program p
      real a(20), bb(20)
      real cut2
      do 1 k = 2, 5
        if (bb(k+4) .gt. cut2) goto 1
        a(k+4) = 1
 1    continue
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind != HsgNode::Kind::Loop) continue;
    EXPECT_FALSE(n.prematureExit);  // target is inside the loop body
    EXPECT_TRUE(n.body->isDag());
    EXPECT_EQ(countKind(*n.body, HsgNode::Kind::Condensed), 0);
  }
}

TEST(HsgTest, PrematureLoopExit) {
  Built b = build(R"(
      program p
      real a(10)
      do i = 1, 10
        if (a(i) .gt. 0) goto 99
        a(i) = 1
      enddo
 99   continue
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind == HsgNode::Kind::Loop) {
      EXPECT_TRUE(n.prematureExit);
    }
  }
}

TEST(HsgTest, ReturnInsideLoopMarksPremature) {
  Built b = build(R"(
      subroutine s(a, n)
      real a(*)
      integer n
      do i = 1, n
        if (a(i) .gt. 0) return
        a(i) = 1
      enddo
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind == HsgNode::Kind::Loop) {
      EXPECT_TRUE(n.prematureExit);
    }
  }
}

TEST(HsgTest, BackwardGotoCondenses) {
  Built b = build(R"(
      program p
      integer x
 10   x = x + 1
      if (x .lt. 100) goto 10
      x = 0
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  EXPECT_GE(countKind(g, HsgNode::Kind::Condensed), 1);
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind == HsgNode::Kind::Condensed) {
      EXPECT_GE(n.condensed.size(), 2u);
    }
  }
}

TEST(HsgTest, ElseIfChain) {
  Built b = build(R"(
      program p
      integer x, y
      if (x .gt. 2) then
        y = 1
      else if (x .gt. 1) then
        y = 2
      else if (x .gt. 0) then
        y = 3
      else
        y = 4
      endif
      y = 5
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  EXPECT_EQ(countKind(g, HsgNode::Kind::Cond), 3);
  // Every cond has exactly two successors with the true branch first.
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind == HsgNode::Kind::Cond) {
      EXPECT_EQ(n.succs.size(), 2u);
    }
  }
}

TEST(HsgTest, CallInsideBranchAndLoop) {
  Built b = build(R"(
      program p
      real a(10)
      integer x
      do i = 1, 5
        if (x .gt. 0) then
          call f(a)
        endif
      enddo
      end
      subroutine f(b)
      real b(10)
      b(1) = 0
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (n.kind != HsgNode::Kind::Loop) continue;
    EXPECT_EQ(countKind(*n.body, HsgNode::Kind::Call), 1);
    EXPECT_EQ(countKind(*n.body, HsgNode::Kind::Cond), 1);
  }
}

TEST(HsgTest, LogicalIfWithGotoMakesTwoWayBranch) {
  Built b = build(R"(
      program p
      integer x
      real t(10)
      if (x .gt. 0) goto 5
      t(1) = 1
 5    t(2) = 2
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  // The label-5 block must have two predecessors (fallthrough + goto).
  for (int id : g.topoOrder()) {
    const HsgNode& n = g.node(id);
    if (!n.stmts.empty() && n.stmts[0]->label == 5) {
      EXPECT_EQ(n.preds.size(), 2u);
    }
  }
}

TEST(HsgTest, EntryAndExitUnique) {
  Built b = build(R"(
      subroutine s(x)
      integer x
      if (x .gt. 0) return
      x = 1
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  EXPECT_TRUE(g.isDag());
  auto order = g.topoOrder();
  EXPECT_EQ(order.front(), g.entry);
  // Every path ends at the unique exit.
  for (int id : order) {
    const HsgNode& n = g.node(id);
    if (n.succs.empty()) {
      EXPECT_EQ(id, g.exit);
    }
  }
}

TEST(HsgTest, TopoOrderRespectsEdges) {
  Built b = build(R"(
      program p
      integer x
      if (x .gt. 0) then
        x = 1
      endif
      x = 2
      end
  )");
  const HsgGraph& g = b.hsg.of(b.program.procedures[0]).graph;
  auto order = g.topoOrder();
  std::map<int, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (int id : order)
    for (int s : g.node(id).succs) EXPECT_LT(pos[id], pos[s]);
}

}  // namespace
}  // namespace panorama
