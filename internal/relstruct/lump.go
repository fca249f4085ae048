package relstruct

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"
)

// coarsestPartition computes the coarsest ordinarily-lumpable partition
// refining the seed: states sharing a block must have identical aggregate
// outflow into every other block (the ordinary-lumpability condition) and
// identical total exit weight — without the exit-weight constraint the
// one-block partition is vacuously lumpable and the refinement would
// report every chain as collapsible to a point; with it the aggregated
// chain also keeps the original sojourn structure.
//
// The refinement is worklist-driven: when a block splits, only the blocks
// holding predecessors of its states (whose signatures referenced it) and
// the new sub-blocks themselves are re-examined, so long propagation
// chains (ladders) cost O(states + transitions) per split instead of a
// full O(states·transitions) synchronous sweep. Refinement is confluent,
// so the processing order does not change the fixed point. Returns the
// per-state block id (blocks numbered by smallest member state index)
// and the block count.
//
// Signatures are computed into stamped scratch arrays and grouped by a
// compact byte key — no per-state maps — so signing and grouping a
// block's members costs O(members + their out-edges·log) with a handful
// of allocations, and the budget below caps the members signed over the
// whole refinement at 64·states + 1024. Merging a block's G exact groups
// under the tolerance then costs a binary search and an insertion into a
// sorted slice per group, plus one signature comparison per
// representative whose exit lies within tolerance of the group's (see
// split). That is a few per group when exit rates are spread out,
// as in a repair farm of unlike machines, and G²/2 in all only when every
// exit lies within tolerance of every other, as in a DTMC whose rows all
// sum to 1.
//
// Before any of that, alone checks the exit weights: when they show that
// no two states can share a block, the partition is every state alone,
// and coarsestPartition returns it at the cost of one sort.
func coarsestPartition(in Input) ([]int, int) {
	tol := in.Tol
	if tol <= 0 {
		tol = 1e-9
	}
	if alone(in, tol) {
		blockOf := make([]int, in.States)
		for s := range blockOf {
			blockOf[s] = s
		}
		return blockOf, in.States
	}
	return refine(in, tol)
}

// alone reports whether no two states can share a block of the coarsest
// partition, from the seed labels and exit weights alone.
//
// Every member of a block refine returns was merged by a split into the
// group of one representative, itself a member, so its exit either has
// the representative's bits or lies within tol of it (closeEnough,
// relative to the larger magnitude). The members of one block share a
// seed label and a sign, since closeEnough fails across a sign change or
// against zero, and sorted by exit, each lies within tol/(1−tol) of the
// next (relative to the larger): on either side of the representative,
// the one nearer to it is between the other and it. Sorted by label and
// exit, then, two members of one block are joined by a run of
// neighbours with one label, each pair within that bound of each other.
// So when no pair of neighbours with one label lies within 2·tol, which
// leaves the bound room for rounding, every state is alone. A NaN or
// infinite difference counts as close, which only keeps the check from
// firing. A tol above 1/16 runs refine.
func alone(in Input, tol float64) bool {
	n := in.States
	if n < 2 || tol > 1.0/16 {
		return n == 1
	}
	exits := make([]labeledExit, n)
	for s := range exits {
		if in.Seed != nil {
			exits[s].label = in.Seed[s]
		}
	}
	// Summed in transition order, as aggregateEdges sums them.
	for k, f := range in.From {
		exits[f].exit += in.Weight[k]
	}
	slices.SortFunc(exits, func(a, b labeledExit) int {
		if a.label != b.label {
			return cmp.Compare(a.label, b.label)
		}
		return cmp.Compare(a.exit, b.exit)
	})
	for i := 1; i < n; i++ {
		a, b := exits[i-1], exits[i]
		if a.label == b.label && !(math.Abs(b.exit-a.exit) > 2*tol*math.Max(math.Abs(a.exit), math.Abs(b.exit))) {
			return false
		}
	}
	return true
}

// labeledExit is one state's seed label and total exit weight.
type labeledExit struct {
	label int
	exit  float64
}

// refine is coarsestPartition's worklist refinement, from the seed
// partition, at tolerance tol.
func refine(in Input, tol float64) ([]int, int) {
	n := in.States
	blockOf := make([]int, n)
	nblocks := 1
	if in.Seed != nil {
		seen := map[int]int{}
		next := 0
		for i, lab := range in.Seed {
			id, ok := seen[lab]
			if !ok {
				id = next
				seen[lab] = id
				next++
			}
			blockOf[i] = id
		}
		nblocks = next
	}

	adj, totalOut := aggregateEdges(n, in.From, in.To, in.Weight)
	pred := reverseAdjacency(n, adj)

	members := make([][]int, nblocks, n)
	for s := 0; s < n; s++ {
		members[blockOf[s]] = append(members[blockOf[s]], s)
	}

	queue := make([]int, 0, nblocks)
	queued := make([]bool, nblocks, n)
	enqueue := func(b int) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}
	for b := 0; b < nblocks; b++ {
		enqueue(b)
	}

	sc := newSigScratch(n)
	var sp splitScratch
	// budget bounds the total signature work. Symmetric models converge
	// in a handful of splits; adversarial shapes (long ladders of
	// all-distinct states) would otherwise peel one state per split for
	// O(states²) work. When the budget runs out the remaining multi-state
	// blocks explode to singletons — a finer-than-coarsest answer that is
	// still trivially lumpable, so the result errs toward "no reduction",
	// never toward a wrong one.
	budget := 64*n + 1024
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false
		ms := members[b]
		if len(ms) <= 1 {
			continue
		}
		budget -= len(ms)
		if budget < 0 {
			for _, s := range ms[1:] {
				blockOf[s] = nblocks
				members = append(members, []int{s})
				queued = append(queued, false)
				nblocks++
			}
			members[b] = ms[:1]
			continue
		}
		sc.reset()
		sigs := make([]sig, len(ms))
		for i, s := range ms {
			sigs[i] = sc.sigOf(s, blockOf, adj, totalOut)
		}
		groups := sp.split(ms, sigs, tol)
		if len(groups) == 1 {
			continue
		}
		// The first group keeps id b; the rest get fresh ids. Everything
		// that could see the split — the sub-blocks (intra flows became
		// inter) and every block holding a predecessor of the old block's
		// states — goes back on the worklist.
		members[b] = groups[0]
		enqueue(b)
		for _, g := range groups[1:] {
			id := nblocks
			nblocks++
			members = append(members, g)
			queued = append(queued, false)
			for _, s := range g {
				blockOf[s] = id
			}
			enqueue(id)
		}
		for _, s := range ms {
			for _, p := range pred.neighbors(s) {
				enqueue(blockOf[p])
			}
		}
	}
	return renumberBySmallestMember(blockOf, nblocks), nblocks
}

// csr is a compact adjacency: neighbors(i) slices the shared backing
// arrays, so building and walking it allocates O(1) beyond the arrays.
type csr struct {
	off []int32
	to  []int32
	w   []float64
}

func (c csr) neighborsW(i int) ([]int32, []float64) {
	return c.to[c.off[i]:c.off[i+1]], c.w[c.off[i]:c.off[i+1]]
}

func (c csr) neighbors(i int) []int32 {
	return c.to[c.off[i]:c.off[i+1]]
}

// aggregateEdges sums parallel edges and drops self-loops (a self-loop
// never crosses a block border so it cannot influence any per-block
// signature entry; it still counts toward the total exit weight),
// returning the forward adjacency and per-state total exit weights.
func aggregateEdges(n int, from, to []int, weight []float64) (csr, []float64) {
	totalOut := make([]float64, n)
	counts := make([]int32, n+1)
	for k, f := range from {
		totalOut[f] += weight[k]
		if f != to[k] {
			counts[f+1]++
		}
	}
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + counts[i+1]
	}
	tos := make([]int32, off[n])
	w := make([]float64, off[n])
	fill := make([]int32, n)
	for k, f := range from {
		if f == to[k] {
			continue
		}
		p := off[f] + fill[f]
		tos[p] = int32(to[k])
		w[p] = weight[k]
		fill[f]++
	}
	// Aggregate duplicates per row: sort each row segment by target in
	// place, then compact (rows are short; the total work is O(E log deg)).
	// With sorted rows the compaction reads left to right, so the write
	// cursor never overtakes an unread entry even though it shares the
	// backing arrays.
	// One sorter serves every row: handing sort.Sort a pointer boxes
	// nothing, where a rowSorter value per row would allocate each time.
	out := csr{off: make([]int32, n+1), to: tos[:0], w: w[:0]}
	rs := new(rowSorter)
	for i := 0; i < n; i++ {
		lo, hi := off[i], off[i+1]
		rs.to, rs.w = tos[lo:hi], w[lo:hi]
		sort.Sort(rs)
		for p := lo; p < hi; p++ {
			if p > lo && tos[p] == out.to[len(out.to)-1] {
				out.w[len(out.w)-1] += w[p]
				continue
			}
			t, wt := tos[p], w[p]
			out.to = append(out.to, t)
			out.w = append(out.w, wt)
		}
		out.off[i+1] = int32(len(out.to))
	}
	return out, totalOut
}

// rowSorter orders one adjacency-row segment by target state.
type rowSorter struct {
	to []int32
	w  []float64
}

func (r *rowSorter) Len() int           { return len(r.to) }
func (r *rowSorter) Less(i, j int) bool { return r.to[i] < r.to[j] }
func (r *rowSorter) Swap(i, j int) {
	r.to[i], r.to[j] = r.to[j], r.to[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}

// reverseAdjacency builds the predecessor lists of an aggregated
// adjacency (weights are irrelevant for invalidation, so only targets
// are kept).
func reverseAdjacency(n int, adj csr) csr {
	counts := make([]int32, n+1)
	for _, t := range adj.to {
		counts[t+1]++
	}
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + counts[i+1]
	}
	to := make([]int32, off[n])
	fill := make([]int32, n)
	for from := 0; from < n; from++ {
		for _, t := range adj.neighbors(from) {
			to[off[t]+fill[t]] = int32(from)
			fill[t]++
		}
	}
	return csr{off: off, to: to}
}

// sig is one state's block-outflow signature: the total exit weight plus
// the aggregate outflow into each foreign block, sorted by block id.
// entries aliases the owning sigScratch's arena and is only valid until
// the next block is processed.
type sig struct {
	exit    float64
	blocks  []int32
	weights []float64
}

// sigScratch holds the stamped accumulation arrays reused across every
// signature computation: acc[b] is the running outflow into block b,
// valid only when mark[b] equals the current stamp.
type sigScratch struct {
	acc     []float64
	mark    []int64
	stamp   int64
	touched []int32
	// arenas back the per-block sig slices; reset per processed block.
	blocksArena  []int32
	weightsArena []float64
}

func newSigScratch(n int) *sigScratch {
	// Block ids never exceed the state count (blocks partition states).
	return &sigScratch{acc: make([]float64, n+1), mark: make([]int64, n+1)}
}

// reset recycles the arenas once the previous block's signatures are no
// longer referenced.
func (sc *sigScratch) reset() {
	sc.blocksArena = sc.blocksArena[:0]
	sc.weightsArena = sc.weightsArena[:0]
}

// sigOf computes one state's current signature against the running
// partition. The returned slices alias the scratch arenas.
func (sc *sigScratch) sigOf(s int, blockOf []int, adj csr, totalOut []float64) sig {
	sc.stamp++
	sc.touched = sc.touched[:0]
	own := blockOf[s]
	tos, ws := adj.neighborsW(s)
	for k, to := range tos {
		tb := int32(blockOf[to])
		if int(tb) == own {
			continue
		}
		if sc.mark[tb] != sc.stamp {
			sc.mark[tb] = sc.stamp
			sc.acc[tb] = 0
			sc.touched = append(sc.touched, tb)
		}
		sc.acc[tb] += ws[k]
	}
	slices.Sort(sc.touched)
	start := len(sc.blocksArena)
	for _, tb := range sc.touched {
		sc.blocksArena = append(sc.blocksArena, tb)
		sc.weightsArena = append(sc.weightsArena, sc.acc[tb])
	}
	return sig{
		exit:    totalOut[s],
		blocks:  sc.blocksArena[start:],
		weights: sc.weightsArena[start:],
	}
}

// splitScratch holds split's working arrays, which coarsestPartition
// reuses from one block to the next: a block then costs two allocations
// for its groups whatever their number, instead of a key string and a
// member list per group.
type splitScratch struct {
	seed maphash.Seed
	// byHash maps a signature key's hash to its exact group; a hash
	// taken by another key probes the next one.
	byHash map[uint64]int
	// keys holds the exact groups' keys back to back, the g-th ending
	// at keyEnd[g].
	keys     []byte
	keyEnd   []int
	keyBuf   []byte
	groupSig []sig
	gidOf    []int // exact group of each member
	mergedOf []int // merged group of each exact group
	reps     []sig
	index    []exitRep
	count    []int
}

// group returns the exact group of the signature key k, adding a group
// represented by sig when k is new.
func (sp *splitScratch) group(k []byte, s sig) int {
	// The probes visit distinct hashes, and only the existing groups
	// hold any, so after len(keyEnd) probes at the most h is free.
	h := maphash.Bytes(sp.seed, k)
	for probe := 0; probe < len(sp.keyEnd); probe++ {
		g, ok := sp.byHash[h]
		if !ok {
			break
		}
		lo := 0
		if g > 0 {
			lo = sp.keyEnd[g-1]
		}
		if bytes.Equal(sp.keys[lo:sp.keyEnd[g]], k) {
			return g
		}
		h++
	}
	g := len(sp.keyEnd)
	sp.byHash[h] = g
	sp.keys = append(sp.keys, k...)
	sp.keyEnd = append(sp.keyEnd, len(sp.keys))
	sp.groupSig = append(sp.groupSig, s)
	return g
}

// split partitions one block's members (in state-index order) into
// groups with matching signatures. Exact-bit grouping handles the common
// symmetric-model case in O(members + signature entries). The exact
// groups are then merged under the relative tolerance, first fit: each
// joins the earliest merged group whose representative matches it.
//
// sameSig fails unless the exits are closeEnough, so a group is compared
// only with the representatives whose exit lies within tolerance of its
// own exit e. index keeps the representatives sorted by exit. For
// tol < 1/2, closeEnough(x, e) is monotone in x on each side of e: on the
// side toward zero it divides by |e| itself, and on the far side x−e is
// exact (Sterbenz) up to 2e, beyond which the relative gap exceeds 1/2.
// The representatives within tolerance therefore form one run of index
// around e's insertion point, and two binary searches find it. Among its
// matches the group joins the lowest-numbered one, which is the one
// first fit would pick. A wider tol compares the group with every
// representative. A NaN exit matches nothing, so it is never indexed.
//
// split works on sp's reused arrays. The groups it returns are carved
// from one new array, so they outlive the next call.
func (sp *splitScratch) split(members []int, sigs []sig, tol float64) [][]int {
	if len(members) <= 1 {
		return [][]int{members}
	}
	if sp.byHash == nil {
		sp.seed = maphash.MakeSeed()
		sp.byHash = map[uint64]int{}
	}
	clear(sp.byHash)
	sp.keys, sp.keyEnd, sp.groupSig = sp.keys[:0], sp.keyEnd[:0], sp.groupSig[:0]
	sp.gidOf = slices.Grow(sp.gidOf[:0], len(members))[:len(members)]
	for i := range members {
		sp.keyBuf = sigs[i].appendKey(sp.keyBuf[:0])
		sp.gidOf[i] = sp.group(sp.keyBuf, sigs[i])
	}
	ngroups := len(sp.keyEnd)
	if ngroups == 1 {
		return [][]int{members}
	}
	// Merge exact groups whose representatives agree within tolerance
	// (rounding at the bit level can split values that are numerically
	// the same aggregate rate).
	sp.mergedOf = slices.Grow(sp.mergedOf[:0], ngroups)[:ngroups]
	sp.reps, sp.index = sp.reps[:0], sp.index[:0]
	for gi := 0; gi < ngroups; gi++ {
		e := sp.groupSig[gi].exit
		index := sp.index
		at := sort.Search(len(index), func(k int) bool { return index[k].exit >= e })
		lo, hi := 0, len(index)
		if tol < 0.5 {
			near := func(k int) bool { return closeEnough(index[k].exit, e, tol) }
			lo = sort.Search(at, near)
			hi = at + sort.Search(len(index)-at, func(k int) bool { return !near(at + k) })
		}
		best := -1
		for _, r := range index[lo:hi] {
			if (best < 0 || r.rep < best) && sameSig(sp.reps[r.rep], sp.groupSig[gi], tol) {
				best = r.rep
			}
		}
		if best >= 0 {
			sp.mergedOf[gi] = best
			continue
		}
		if !math.IsNaN(e) {
			sp.index = slices.Insert(sp.index, at, exitRep{exit: e, rep: len(sp.reps)})
		}
		sp.mergedOf[gi] = len(sp.reps)
		sp.reps = append(sp.reps, sp.groupSig[gi])
	}
	// Carve the merged groups from one array. Members come in state
	// order, so each group lists its members in state order.
	nmerged := len(sp.reps)
	sp.count = slices.Grow(sp.count[:0], nmerged+1)[:nmerged+1]
	clear(sp.count)
	for _, g := range sp.gidOf {
		sp.count[sp.mergedOf[g]+1]++
	}
	for m := 0; m < nmerged; m++ {
		sp.count[m+1] += sp.count[m]
	}
	backing := make([]int, len(members))
	merged := make([][]int, nmerged)
	for m := range merged {
		merged[m] = backing[sp.count[m]:sp.count[m]:sp.count[m+1]]
	}
	for i, s := range members {
		m := sp.mergedOf[sp.gidOf[i]]
		merged[m] = append(merged[m], s)
	}
	return merged
}

// exitRep is one entry of split's exit-sorted representative index:
// a merged group's number and its representative's exit.
type exitRep struct {
	exit float64
	rep  int
}

// appendKey renders the signature as an exact, order-independent byte
// key (entries are already sorted by block id).
func (s sig) appendKey(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.exit))
	for i, b := range s.blocks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.weights[i]))
	}
	return buf
}

// sameSig compares two block-outflow signatures within a relative
// tolerance (mirroring markov's lumpability check, so the refinement here
// and the verification in markov.Lump agree on what counts as uniform).
// Entries are sorted by block id, so the comparison is a merge walk; a
// block absent from one side matches an exact zero on the other.
func sameSig(a, b sig, tol float64) bool {
	if !closeEnough(a.exit, b.exit, tol) {
		return false
	}
	i, j := 0, 0
	for i < len(a.blocks) || j < len(b.blocks) {
		switch {
		case j >= len(b.blocks) || (i < len(a.blocks) && a.blocks[i] < b.blocks[j]):
			if a.weights[i] != 0 { //numvet:allow float-eq an absent key only matches an exact zero
				return false
			}
			i++
		case i >= len(a.blocks) || b.blocks[j] < a.blocks[i]:
			if b.weights[j] != 0 { //numvet:allow float-eq an absent key only matches an exact zero
				return false
			}
			j++
		default:
			if !closeEnough(a.weights[i], b.weights[j], tol) {
				return false
			}
			i++
			j++
		}
	}
	return true
}

func closeEnough(ra, rb, tol float64) bool {
	scale := math.Max(math.Abs(ra), math.Abs(rb))
	if scale == 0 { //numvet:allow float-eq both rates exactly zero compare equal; guards the division below
		return true
	}
	return math.Abs(ra-rb)/scale <= tol
}

// renumberBySmallestMember relabels blocks so ids ascend with each
// block's smallest state index, making reports independent of refinement
// order.
func renumberBySmallestMember(blockOf []int, nblocks int) []int {
	first := make([]int, nblocks)
	for i := range first {
		first[i] = len(blockOf)
	}
	for s := len(blockOf) - 1; s >= 0; s-- {
		first[blockOf[s]] = s
	}
	order := make([]int, nblocks)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return first[order[a]] < first[order[b]] })
	renum := make([]int, nblocks)
	for newID, old := range order {
		renum[old] = newID
	}
	out := make([]int, len(blockOf))
	for s, b := range blockOf {
		out[s] = renum[b]
	}
	return out
}
