package relstruct

import "math"

// condense computes the strongly connected components of the chain graph
// and returns the per-state class index plus the classes ordered
// deterministically by smallest member state index.
func condense(n int, adj [][]int, names []string) ([]int, []Class) {
	rawOf, comps := sccs(n, func(v int) []int { return adj[v] })
	// Renumber components by smallest member index so reports are stable
	// regardless of traversal order.
	classOf := renumberBySmallestMember(rawOf, comps)
	classes := make([]Class, comps)
	for i := range classes {
		classes[i].Index = i
	}
	for s, c := range classOf {
		classes[c].States = append(classes[c].States, names[s])
	}
	return classOf, classes
}

// ClosedClasses finds the closed classes of the graph on states 0..n-1
// whose state v has the out-neighbours out(v), self-loops and repeats
// allowed: the communicating classes that no edge leaves, which hold
// every stationary distribution's mass. closedOf[v] numbers v's closed
// class from 0, or is -1 for a state outside every closed class (a
// transient state), and closed counts the classes. out is called twice
// per state, and its slices are only read. The pass is O(states + edges)
// and allocates three arrays.
func ClosedClasses(n int, out func(v int) []int) (closedOf []int, closed int) {
	comp, comps := sccs(n, out)
	id := make([]int, comps) // 0 while closed, -1 once an edge leaves
	for v := 0; v < n; v++ {
		for _, w := range out(v) {
			if comp[w] != comp[v] {
				id[comp[v]] = -1
			}
		}
	}
	for c, open := range id {
		if open == 0 {
			id[c] = closed
			closed++
		}
	}
	for v, c := range comp {
		comp[v] = id[c]
	}
	return comp, closed
}

// sccs numbers the strongly connected components of the graph on states
// 0..n-1 whose state v has the out-neighbours out(v), with an iterative
// Tarjan (the recursive form overflows the goroutine stack on deep chains
// like long birth-death ladders). comp[v] is v's component, numbered in
// the order Tarjan closes them, and comps counts them. out is called
// once per state. The per-state arrays share one allocation and the
// suspended activations another, so the pass allocates twice whatever
// the graph.
func sccs(n int, out func(v int) []int) (comp []int, comps int) {
	const unvisited, done = -1, math.MaxInt
	// A state's index is its visiting order while it is on Tarjan's
	// stack, and done once its component is closed, which keeps it out of
	// every later low-link.
	buf := make([]int, 4*n)
	index, low := buf[:n:n], buf[n:2*n:2*n]
	comp, stack := buf[2*n:3*n:3*n], buf[3*n:3*n:4*n]
	for i := range index {
		index[i] = unvisited
	}
	next := 0

	// frame is one suspended strongconnect activation: state v, its
	// out-neighbours and the next one to visit.
	type frame struct {
		v    int
		row  []int
		edge int
	}
	frames := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames, frame{v: root, row: out(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.edge < len(f.row) {
				w := f.row[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					frames = append(frames, frame{v: w, row: out(w)})
				} else if index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is exhausted: close its component if it is a root, then
			// propagate its low-link to the caller.
			if low[v] == index[v] {
				for len(stack) > 0 {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					index[w] = done
					comp[w] = comps
					if w == v {
						break
					}
				}
				comps++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				u := frames[len(frames)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return comp, comps
}

// weakComponents counts weakly connected components (union-find over the
// undirected edge set). Isolated states each form their own component.
func weakComponents(n int, from, to []int) int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := n
	for k, f := range from {
		a, b := find(f), find(to[k])
		if a != b {
			parent[a] = b
			comps--
		}
	}
	return comps
}
