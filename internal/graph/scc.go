package graph

// SCCInfo is the result of Tarjan's strongly-connected components
// algorithm on a Graph.
//
// Components are numbered in the order Tarjan's algorithm closes them,
// which is a reverse topological order of the condensation: if any
// edge leads from component c1 to a different component c2, then
// c2's number is smaller than c1's (the paper's Lemma 1). Solvers that
// propagate information from callees to callers can therefore simply
// process components in increasing number.
type SCCInfo struct {
	// Comp[v] is the component number of node v.
	Comp []int
	// Members[c] lists the nodes of component c.
	Members [][]int
	// Trivial[c] reports that component c is a single node with no
	// self-loop (it cannot reach itself by a non-empty path).
	Trivial []bool
}

// NumComponents returns the number of strongly-connected components.
func (s *SCCInfo) NumComponents() int { return len(s.Members) }

// SCC computes the strongly-connected components of g using an
// iterative formulation of Tarjan's algorithm (recursion replaced by
// an explicit frame stack so that million-node benchmark graphs cannot
// exhaust the goroutine stack).
func (g *Graph) SCC() *SCCInfo {
	n := g.NumNodes()
	const unvisited = 0
	dfn := make([]int, n) // 0 = unvisited; otherwise discovery index+1
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var members [][]int
	var trivial []bool
	// Every node lands in exactly one component, so all Members slices
	// are carved from one backing array (full-slice expressions keep
	// them from aliasing each other through append).
	membersBack := make([]int, 0, n)
	stack := make([]int, 0, n) // Tarjan's node stack
	next := 1

	type frame struct {
		v  int
		ei int // index into g.succ[v] of the next edge to examine
	}
	frames := make([]frame, 0, 64)
	selfLoop := make([]bool, n)

	for root := 0; root < n; root++ {
		if dfn[root] != unvisited {
			continue
		}
		frames = append(frames, frame{v: root})
		dfn[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			advanced := false
			for f.ei < len(g.succ[v]) {
				e := g.succ[v][f.ei]
				f.ei++
				w := e.To
				if w == v {
					selfLoop[v] = true
				}
				if dfn[w] == unvisited {
					dfn[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && dfn[w] < lowlink[v] {
					lowlink[v] = dfn[w]
				}
			}
			if advanced {
				continue
			}
			// All edges of v examined: close component if v is a root.
			if lowlink[v] == dfn[v] {
				c := len(members)
				start := len(membersBack)
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					comp[u] = c
					membersBack = append(membersBack, u)
					if u == v {
						break
					}
				}
				ms := membersBack[start:len(membersBack):len(membersBack)]
				members = append(members, ms)
				trivial = append(trivial, len(ms) == 1 && !selfLoop[v])
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
		}
	}
	return &SCCInfo{Comp: comp, Members: members, Trivial: trivial}
}
