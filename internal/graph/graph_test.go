package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddNodesEdges(t *testing.T) {
	g := New(3)
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("New(3): %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	e0 := g.AddEdge(0, 1)
	e1 := g.AddEdge(0, 1) // parallel edge
	e2 := g.AddEdge(1, 2)
	if e0 != 0 || e1 != 1 || e2 != 2 {
		t.Fatalf("edge IDs %d %d %d", e0, e1, e2)
	}
	if len(g.Succs(0)) != 2 {
		t.Errorf("Succs(0) = %v, want 2 parallel edges", g.Succs(0))
	}
	if len(g.Preds(1)) != 2 {
		t.Errorf("Preds(1) = %v", g.Preds(1))
	}
	if g.Edge(2).From != 1 || g.Edge(2).To != 2 {
		t.Errorf("Edge(2) = %+v", g.Edge(2))
	}
}

func TestReachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	got := g.Reachable(0)
	want := []bool{true, true, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reachable(0) = %v, want %v", got, want)
	}
	got = g.Reachable(0, 3)
	want = []bool{true, true, true, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reachable(0,3) = %v, want %v", got, want)
	}
	got = g.Reachable()
	want = []bool{false, false, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reachable() = %v", got)
	}
}

func TestSCCSimpleCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	s := g.SCC()
	if s.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", s.NumComponents())
	}
	if s.Comp[0] != s.Comp[1] || s.Comp[1] != s.Comp[2] {
		t.Errorf("cycle nodes in different components: %v", s.Comp)
	}
	if s.Comp[3] == s.Comp[0] {
		t.Errorf("node 3 merged into cycle: %v", s.Comp)
	}
	// Reverse topological order: component of 3 (a sink) closes first.
	if s.Comp[3] != 0 {
		t.Errorf("sink component number = %d, want 0", s.Comp[3])
	}
	if !s.Trivial[s.Comp[3]] {
		t.Error("singleton without self-loop should be trivial")
	}
	if s.Trivial[s.Comp[0]] {
		t.Error("cycle component should not be trivial")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	s := g.SCC()
	if s.NumComponents() != 2 {
		t.Fatalf("components = %d", s.NumComponents())
	}
	if s.Trivial[s.Comp[0]] {
		t.Error("self-loop node must be non-trivial")
	}
	if !s.Trivial[s.Comp[1]] {
		t.Error("plain node must be trivial")
	}
}

func TestSCCDisconnected(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(3, 4)
	s := g.SCC()
	if s.NumComponents() != 5 {
		t.Fatalf("components = %d, want 5", s.NumComponents())
	}
	total := 0
	for _, m := range s.Members {
		total += len(m)
	}
	if total != 6 {
		t.Errorf("members cover %d nodes, want 6", total)
	}
}

// TestSCCReverseTopoOrder verifies the property the paper's Lemma 1
// rests on: Tarjan closes a component before any component with an
// edge into it... precisely, for every edge u→v crossing components,
// comp(v) < comp(u).
func TestSCCReverseTopoOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		g := New(n)
		for i := 0; i < n*3; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		s := g.SCC()
		for _, e := range g.Edges() {
			cf, ct := s.Comp[e.From], s.Comp[e.To]
			if cf != ct && ct >= cf {
				t.Fatalf("trial %d: edge %d→%d has comp %d→%d, not reverse topo",
					trial, e.From, e.To, cf, ct)
			}
		}
	}
}

// naiveSCC computes components by mutual reachability, as an oracle.
func naiveSCC(g *Graph) []int {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for v := 0; v < n; v++ {
		reach[v] = g.Reachable(v)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = next
		for w := v + 1; w < n; w++ {
			if comp[w] == -1 && reach[v][w] && reach[w][v] {
				comp[w] = next
			}
		}
		next++
	}
	return comp
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[[2]int]bool{}
	for i := range a {
		m[[2]int{a[i], b[i]}] = true
	}
	// bijective relabeling: each a-label maps to exactly one b-label and
	// vice versa.
	fa, fb := map[int]int{}, map[int]int{}
	for k := range m {
		if v, ok := fa[k[0]]; ok && v != k[1] {
			return false
		}
		if v, ok := fb[k[1]]; ok && v != k[0] {
			return false
		}
		fa[k[0]] = k[1]
		fb[k[1]] = k[0]
	}
	return true
}

func TestQuickSCCMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := New(n)
		e := r.Intn(3 * n)
		for i := 0; i < e; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		return samePartition(g.SCC().Comp, naiveSCC(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSCCLargeChainIterative(t *testing.T) {
	// A deep chain would overflow a recursive implementation's stack;
	// the iterative one must handle it.
	const n = 200_000
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	s := g.SCC()
	if s.NumComponents() != n {
		t.Fatalf("components = %d, want %d", s.NumComponents(), n)
	}
	// Chain is closed tail-first.
	if s.Comp[n-1] != 0 || s.Comp[0] != n-1 {
		t.Errorf("unexpected closing order: comp[last]=%d comp[0]=%d", s.Comp[n-1], s.Comp[0])
	}
}

func TestSCCMembersConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := New(30)
	for i := 0; i < 90; i++ {
		g.AddEdge(r.Intn(30), r.Intn(30))
	}
	s := g.SCC()
	for c, ms := range s.Members {
		for _, v := range ms {
			if s.Comp[v] != c {
				t.Fatalf("member %d of comp %d has Comp=%d", v, c, s.Comp[v])
			}
		}
	}
	var all []int
	for _, ms := range s.Members {
		all = append(all, ms...)
	}
	sort.Ints(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("members not a partition: %v", all)
		}
	}
}
