// Package graph provides the directed multi-graph substrate shared by
// the call multi-graph and the binding multi-graph, together with the
// graph algorithms the paper builds on: Tarjan's strongly-connected
// components algorithm and reachability.
//
// Nodes are dense integers [0, N). Parallel edges are permitted and
// significant (both the call graph and β are multi-graphs); each edge
// has a stable integer identifier in [0, E) in insertion order.
package graph

// Edge is a directed edge. ID identifies the edge within its graph and
// is the index clients use to attach side tables (e.g. the binding
// functions g_e of Section 6 of the paper).
type Edge struct {
	From, To int
	ID       int
}

// Graph is a mutable directed multi-graph.
type Graph struct {
	succ  [][]Edge
	pred  [][]Edge
	edges []Edge
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{succ: make([][]Edge, n), pred: make([][]Edge, n)}
}

// FromEdgeList builds a graph over n nodes from a prepared edge list
// in one pass, assigning edge IDs by list position. The adjacency
// lists are carved from two shared backing arrays (classic CSR
// layout), so construction costs a constant number of allocations
// instead of O(N + E) incremental appends — the hot builders (call
// graph, β, the per-level graphs of the multi-level GMOD solver)
// rebuild graphs on every analysis. The list is taken over by the
// graph; callers must not reuse it. AddEdge remains valid afterwards
// (later appends fall off the shared backing arrays naturally).
func FromEdgeList(n int, list []Edge) *Graph {
	for i := range list {
		list[i].ID = i
	}
	g := &Graph{succ: make([][]Edge, n), pred: make([][]Edge, n), edges: list}
	deg := make([]int32, 2*n)
	out, in := deg[:n], deg[n:]
	for _, e := range list {
		out[e.From]++
		in[e.To]++
	}
	succBack := make([]Edge, len(list))
	predBack := make([]Edge, len(list))
	var so, po int32
	for v := 0; v < n; v++ {
		g.succ[v] = succBack[so : so : so+out[v]]
		g.pred[v] = predBack[po : po : po+in[v]]
		so += out[v]
		po += in[v]
	}
	for _, e := range list {
		g.succ[e.From] = append(g.succ[e.From], e)
		g.pred[e.To] = append(g.pred[e.To], e)
	}
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.succ) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts a directed edge from→to and returns its ID.
// Self-loops and parallel edges are allowed.
func (g *Graph) AddEdge(from, to int) int {
	e := Edge{From: from, To: to, ID: len(g.edges)}
	g.edges = append(g.edges, e)
	g.succ[from] = append(g.succ[from], e)
	g.pred[to] = append(g.pred[to], e)
	return e.ID
}

// Succs returns the out-edges of v. The slice is shared; callers must
// not mutate it.
func (g *Graph) Succs(v int) []Edge { return g.succ[v] }

// Preds returns the in-edges of v. The slice is shared; callers must
// not mutate it.
func (g *Graph) Preds(v int) []Edge { return g.pred[v] }

// Edges returns all edges in insertion order. The slice is shared.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Reachable returns the set of nodes reachable from any of the roots
// (the roots themselves included), as a boolean slice indexed by node.
func (g *Graph) Reachable(roots ...int) []bool {
	seen := make([]bool, g.NumNodes())
	stack := make([]int, 0, len(roots))
	for _, r := range roots {
		if r >= 0 && r < len(seen) && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.succ[v] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}
