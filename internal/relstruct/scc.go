package relstruct

// condense computes the strongly connected components of the chain graph
// with an iterative Tarjan (the recursive form overflows the goroutine
// stack on deep chains like long birth-death ladders) and returns the
// per-state class index plus the classes ordered deterministically by
// smallest member state index.
func condense(n int, adj [][]int, names []string) ([]int, []Class) {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	rawOf := make([]int, n)
	comps := 0
	next := 0

	// frame is one suspended strongconnect activation.
	type frame struct {
		v    int
		edge int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.edge < len(adj[v]) {
				w := adj[v][f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
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
					onStack[w] = false
					rawOf[w] = comps
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
