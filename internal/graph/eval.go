// Interned-ID evaluation core: a label-indexed CSR adjacency built lazily
// over the graph, a chain-automaton product BFS over bitset frontiers, a
// reverse-reachability precomputation that prunes hopeless sources, and a
// parallel all-pairs Eval that fans sources out over a worker pool.
//
// The learnable path-query class (concatenations of letters and starred
// letters) yields an NFA whose states form a chain: every transition goes
// from state s to s or s+1. Reachable-node sets can therefore be computed
// state by state with dense bitsets instead of a (node, state) hash map —
// the representation shift that makes the T8/F1 hot path fast.
package graph

import (
	"sort"

	"querylearn/internal/bitset"
	"querylearn/internal/plan"
)

// csr is a compact adjacency for one edge label: row v's targets are
// to[start[v]:start[v+1]], sorted ascending.
type csr struct {
	start []int32
	to    []int32
}

func (c csr) row(v int) []int32 { return c.to[c.start[v]:c.start[v+1]] }

// labelIndex is the interned-label view of a graph: label ids, per-label
// forward and reverse CSR adjacencies, and one combined adjacency sorted by
// (label, target) for deterministic shortest-path expansion.
type labelIndex struct {
	labels   []string
	labelIDs map[string]int
	out, in  []csr
	// Combined adjacency, rows sorted by (label lexicographically, target).
	sortedStart []int32
	sortedLabel []int32
	sortedTo    []int32
}

// index returns the cached label index, building it on first use after a
// mutation. The lock makes concurrent queries on a quiescent graph safe;
// the returned index is immutable once published.
func (g *Graph) index() *labelIndex {
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if g.idx == nil {
		g.idx = buildIndex(g)
	}
	return g.idx
}

func buildIndex(g *Graph) *labelIndex {
	n := len(g.nodes)
	ix := &labelIndex{labelIDs: map[string]int{}}
	for _, es := range g.out {
		for _, e := range es {
			if _, ok := ix.labelIDs[e.label]; !ok {
				ix.labelIDs[e.label] = len(ix.labels)
				ix.labels = append(ix.labels, e.label)
			}
		}
	}
	ix.out = buildCSR(g, ix.labelIDs, len(ix.labels), false)
	ix.in = buildCSR(g, ix.labelIDs, len(ix.labels), true)

	// Combined lex-sorted adjacency: concatenate the per-label rows in
	// lexicographic label order (rows are already target-sorted), matching
	// the (label, node) expansion order of the naive ShortestWord.
	lex := make([]int, len(ix.labels))
	for i := range lex {
		lex[i] = i
	}
	sort.Slice(lex, func(a, b int) bool { return ix.labels[lex[a]] < ix.labels[lex[b]] })
	ix.sortedStart = make([]int32, n+1)
	ix.sortedLabel = make([]int32, 0, g.m)
	ix.sortedTo = make([]int32, 0, g.m)
	for v := 0; v < n; v++ {
		for _, l := range lex {
			for _, t := range ix.out[l].row(v) {
				ix.sortedLabel = append(ix.sortedLabel, int32(l))
				ix.sortedTo = append(ix.sortedTo, t)
			}
		}
		ix.sortedStart[v+1] = int32(len(ix.sortedTo))
	}
	return ix
}

func buildCSR(g *Graph, labelIDs map[string]int, nLabels int, reverse bool) []csr {
	n := len(g.nodes)
	cs := make([]csr, nLabels)
	for l := range cs {
		cs[l].start = make([]int32, n+1)
	}
	for f, es := range g.out {
		for _, e := range es {
			l := labelIDs[e.label]
			if reverse {
				cs[l].start[e.node+1]++
			} else {
				cs[l].start[f+1]++
			}
		}
	}
	cur := make([][]int32, nLabels)
	for l := range cs {
		for v := 0; v < n; v++ {
			cs[l].start[v+1] += cs[l].start[v]
		}
		cs[l].to = make([]int32, cs[l].start[n])
		cur[l] = append([]int32(nil), cs[l].start[:n]...)
	}
	for f, es := range g.out {
		for _, e := range es {
			l := labelIDs[e.label]
			if reverse {
				cs[l].to[cur[l][e.node]] = int32(f)
				cur[l][e.node]++
			} else {
				cs[l].to[cur[l][f]] = int32(e.node)
				cur[l][f]++
			}
		}
	}
	for l := range cs {
		for v := 0; v < n; v++ {
			row := cs[l].row(v)
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		}
	}
	return cs
}

// evaluator carries the per-query immutable plan (label ids and the
// backward can-accept sets) plus reusable per-worker scratch frontiers.
type evaluator struct {
	g    *Graph
	ix   *labelIndex
	q    PathQuery
	lids []int // label id per atom, -1 when the label is absent
	// canAccept[s]: nodes v such that some accepting run starts at (v, s).
	// canAccept[0] is exactly the useful source set.
	canAccept []*bitset.Set
	// Scratch, one instance per worker (see fork).
	states         []*bitset.Set
	frontier, next *bitset.Set
}

func newEvaluator(g *Graph, q PathQuery) *evaluator {
	ix := g.index()
	n := len(g.nodes)
	k := len(q.Atoms)
	ev := &evaluator{g: g, ix: ix, q: q, lids: make([]int, k)}
	for i, a := range q.Atoms {
		if id, ok := ix.labelIDs[a.Label]; ok {
			ev.lids[i] = id
		} else {
			ev.lids[i] = -1
		}
	}
	ev.frontier, ev.next = bitset.New(n), bitset.New(n)
	ev.states = make([]*bitset.Set, k+1)
	for i := range ev.states {
		ev.states[i] = bitset.New(n)
	}
	// Backward pass: every node accepts at state k; walk the chain right to
	// left over the reverse CSR.
	ev.canAccept = make([]*bitset.Set, k+1)
	acc := bitset.New(n)
	acc.Fill()
	ev.canAccept[k] = acc
	for s := k - 1; s >= 0; s-- {
		cur := bitset.New(n)
		lid := ev.lids[s]
		if q.Atoms[s].Star {
			// (v,s) accepts iff some a-path (possibly empty) leads to a
			// node accepting at s+1: backward closure over reverse edges.
			cur.Or(ev.canAccept[s+1])
			if lid >= 0 {
				ev.closure(cur, ev.ix.in[lid])
			}
		} else if lid >= 0 {
			addSuccessors(cur, ev.canAccept[s+1], ev.ix.in[lid])
		}
		ev.canAccept[s] = cur
	}
	return ev
}

// fork returns an evaluator sharing the immutable plan with fresh scratch
// sets, for use on another goroutine.
func (ev *evaluator) fork() *evaluator {
	n := len(ev.g.nodes)
	c := &evaluator{g: ev.g, ix: ev.ix, q: ev.q, lids: ev.lids, canAccept: ev.canAccept}
	c.frontier, c.next = bitset.New(n), bitset.New(n)
	c.states = make([]*bitset.Set, len(ev.states))
	for i := range c.states {
		c.states[i] = bitset.New(n)
	}
	return c
}

// addSuccessors unions into dst the c-successors of every node in src.
func addSuccessors(dst, src *bitset.Set, c csr) {
	src.ForEach(func(v int) {
		for _, t := range c.row(v) {
			dst.Add(int(t))
		}
	})
}

// closure grows set to its fixpoint under c-edges (frontier BFS).
func (ev *evaluator) closure(set *bitset.Set, c csr) {
	ev.frontier.Copy(set)
	for {
		ev.next.Clear()
		addSuccessors(ev.next, ev.frontier, c)
		ev.next.AndNot(set)
		if ev.next.Empty() {
			return
		}
		set.Or(ev.next)
		ev.frontier.Copy(ev.next)
	}
}

// run returns the set of nodes reachable from src with the whole query
// consumed. The returned set aliases the evaluator's scratch space.
func (ev *evaluator) run(src int) *bitset.Set {
	k := len(ev.q.Atoms)
	S := ev.states
	S[0].Clear()
	if ev.canAccept[0].Has(src) {
		S[0].Add(src)
	}
	for s := 0; s < k; s++ {
		lid := ev.lids[s]
		S[s+1].Clear()
		if S[s].Empty() {
			continue
		}
		if ev.q.Atoms[s].Star {
			if lid >= 0 {
				ev.closure(S[s], ev.ix.out[lid])
			}
			S[s+1].Or(S[s])
		} else if lid >= 0 {
			addSuccessors(S[s+1], S[s], ev.ix.out[lid])
		}
		S[s+1].And(ev.canAccept[s+1])
	}
	return S[k]
}

// EvalFrom returns the node indices reachable from src by a path whose
// label word is in L(q), sorted ascending.
func (g *Graph) EvalFrom(q PathQuery, src int) []int {
	return newEvaluator(g, q).run(src).Slice()
}

// Eval returns all pairs (src, dst) the query selects on the graph, in
// (src, dst) ascending order. Sources that cannot start an accepting run
// are pruned by the backward pass; the surviving sources are evaluated in
// parallel across a worker pool. Eval is the materializing form of
// EvalStream (see plan.go), which delivers the same pairs in the same order
// to a sink with early termination.
func (g *Graph) Eval(q PathQuery) []Pair {
	var out []Pair
	g.EvalStream(q, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// pairEvaluator is the sparse per-source product-BFS behind EvalPairs: an
// explicit (node, state) worklist with an epoch-stamped visited array, so
// each source costs O(configurations reached), never O(n) bitset sweeps per
// frontier round. The dense evaluator's word-parallel closures win when most
// of the graph is reachable (all-pairs Eval); for a few thousand pool
// sources on a huge graph, output-sensitive beats word-parallel by orders of
// magnitude — chain-shaped subgraphs make the dense closure O(n²/64) per
// source.
type pairEvaluator struct {
	g    *Graph
	ix   *labelIndex
	q    PathQuery
	lids []int
	k    int
	// visited[node*(k+1)+state] == epoch marks a reached configuration.
	visited []uint32
	epoch   uint32
	stack   []int64
}

func newPairEvaluator(g *Graph, q PathQuery) *pairEvaluator {
	ev := newPairEvaluatorPlan(g, q)
	ev.visited = make([]uint32, len(g.nodes)*(ev.k+1))
	return ev
}

// newPairEvaluatorPlan builds the immutable query plan without the visited
// scratch, for callers that inject a shared array (SelectsMany).
func newPairEvaluatorPlan(g *Graph, q PathQuery) *pairEvaluator {
	ix := g.index()
	k := len(q.Atoms)
	ev := &pairEvaluator{g: g, ix: ix, q: q, k: k, lids: make([]int, k)}
	for i, a := range q.Atoms {
		if id, ok := ix.labelIDs[a.Label]; ok {
			ev.lids[i] = id
		} else {
			ev.lids[i] = -1
		}
	}
	return ev
}

// fork returns an evaluator sharing the immutable plan with fresh scratch,
// for use on another goroutine.
func (ev *pairEvaluator) fork() *pairEvaluator {
	c := &pairEvaluator{g: ev.g, ix: ev.ix, q: ev.q, lids: ev.lids, k: ev.k}
	c.visited = make([]uint32, len(ev.visited))
	return c
}

// push marks (node, state) and its epsilon closure (skipping starred atoms)
// reached, enqueueing newly discovered configurations.
func (ev *pairEvaluator) push(node, state int) {
	for {
		idx := node*(ev.k+1) + state
		if ev.visited[idx] == ev.epoch {
			return
		}
		ev.visited[idx] = ev.epoch
		ev.stack = append(ev.stack, int64(idx))
		if state < ev.k && ev.q.Atoms[state].Star {
			state++
			continue
		}
		return
	}
}

// run explores every configuration reachable from (src, 0). Membership of a
// destination is then a visited probe at state k.
func (ev *pairEvaluator) run(src int) {
	ev.epoch++
	if ev.epoch == 0 { // wrapped: invalidate stale stamps
		for i := range ev.visited {
			ev.visited[i] = 0
		}
		ev.epoch = 1
	}
	ev.stack = ev.stack[:0]
	ev.push(src, 0)
	for len(ev.stack) > 0 {
		idx := ev.stack[len(ev.stack)-1]
		ev.stack = ev.stack[:len(ev.stack)-1]
		node, state := int(idx)/(ev.k+1), int(idx)%(ev.k+1)
		if state >= ev.k {
			continue
		}
		lid := ev.lids[state]
		if lid < 0 {
			continue
		}
		star := ev.q.Atoms[state].Star
		for _, to := range ev.ix.out[lid].row(node) {
			if star {
				ev.push(int(to), state)
			} else {
				ev.push(int(to), state+1)
			}
		}
	}
}

func (ev *pairEvaluator) selects(dst int) bool {
	return ev.visited[dst*(ev.k+1)+ev.k] == ev.epoch
}

// EvalPairs reports, for each requested pair, whether the query selects it —
// the pool-restricted evaluation behind sparse interactive sessions. Work is
// proportional to the distinct BFS runs the planner schedules: pairs are
// grouped by source, and each group runs a forward product BFS from its
// source or — when the frontier estimates price it cheaper — backward
// product BFSes from its destinations, deduplicated across groups (see
// planPairTasks in plan.go). With planning disabled the PR 5 behaviour is
// retained: one forward run per distinct source. Either way the work never
// touches the n² pair space, so candidate membership over a question pool
// stays cheap on graphs far beyond the all-pairs regime. Pair node indexes
// must be valid.
func (g *Graph) EvalPairs(q PathQuery, pairs []Pair) []bool {
	out := make([]bool, len(pairs))
	g.EvalPairsStream(q, pairs, nil, func(v PairVerdict) bool {
		out[v.Index] = v.Selected
		return true
	})
	return out
}

// SelectsMany reports, for each query, whether it selects the pair — the
// ensemble-membership probe behind version-space growth (an answer naming a
// pair outside a session's interned universe must be judged by every
// surviving candidate). One visited array sized for the longest query is
// shared across all the runs, so the whole call allocates O(n·maxK) once
// instead of per query; epoch stamping makes the reuse safe because stale
// entries from a previous query always carry a smaller epoch.
func (g *Graph) SelectsMany(qs []PathQuery, src, dst int) []bool {
	out := make([]bool, len(qs))
	g.SelectsManyStream(qs, src, dst, func(v PairVerdict) bool {
		out[v.Index] = v.Selected
		return true
	})
	return out
}

// EvalPairsNaive answers the same membership questions through the original
// map-backed per-source evaluator — the differential-testing oracle for
// EvalPairs.
func (g *Graph) EvalPairsNaive(q PathQuery, pairs []Pair) []bool {
	out := make([]bool, len(pairs))
	reach := map[int]map[int]bool{}
	for i, p := range pairs {
		dsts, ok := reach[p.Src]
		if !ok {
			dsts = map[int]bool{}
			for _, d := range g.EvalFromNaive(q, p.Src) {
				dsts[d] = true
			}
			reach[p.Src] = dsts
		}
		out[i] = dsts[p.Dst]
	}
	return out
}

// Selects reports whether the query selects the given pair. The planned
// path answers with one sparse product BFS in the direction — forward from
// src or backward from dst — whose first-frontier estimate is smaller,
// instead of the dense evaluator's whole-graph backward precomputation;
// with planning disabled the dense PR 1 behaviour is retained.
func (g *Graph) Selects(q PathQuery, src, dst int) bool {
	if plan.Disabled() {
		return newEvaluator(g, q).run(src).Has(dst)
	}
	ev := newPairEvaluator(g, q)
	if ev.k > 0 && ev.frontierIn(dst) < ev.frontierOut(src) {
		plan.CountDecision(layerSelects, "backward", 1)
		ev.runBack(dst)
		return ev.coselects(src)
	}
	plan.CountDecision(layerSelects, "forward", 1)
	ev.run(src)
	return ev.selects(dst)
}

// ShortestWord returns the label word of a shortest path from src to dst
// (ties broken by lexicographic label order), or nil when dst is
// unreachable. It is the witness the path-query learner generalizes.
func (g *Graph) ShortestWord(src, dst int) []string {
	if src == dst {
		return []string{}
	}
	ix := g.index()
	n := len(g.nodes)
	prevNode := make([]int32, n)
	prevLabel := make([]int32, n)
	for i := range prevNode {
		prevNode[i] = -1
	}
	seen := bitset.New(n)
	seen.Add(src)
	queue := make([]int32, 1, 64)
	queue[0] = int32(src)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for e := ix.sortedStart[v]; e < ix.sortedStart[v+1]; e++ {
			t := int(ix.sortedTo[e])
			if seen.Has(t) {
				continue
			}
			seen.Add(t)
			prevNode[t] = v
			prevLabel[t] = ix.sortedLabel[e]
			if t == dst {
				var word []string
				for c := int32(dst); c != int32(src); c = prevNode[c] {
					word = append(word, ix.labels[prevLabel[c]])
				}
				for i, j := 0, len(word)-1; i < j; i, j = i+1, j-1 {
					word[i], word[j] = word[j], word[i]
				}
				return word
			}
			queue = append(queue, int32(t))
		}
	}
	return nil
}
