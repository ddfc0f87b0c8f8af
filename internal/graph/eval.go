// Interned-ID evaluation core: a label-indexed CSR adjacency built lazily
// over the graph, one engine per job over it. All-pairs Eval and pool
// membership (EvalPairs) carry 64 sources per pass through a bit-parallel
// product BFS (lanes.go); single-pair probes (Selects) run one sparse product
// BFS over an epoch-stamped (node, state) worklist.
//
// The learnable path-query class (concatenations of letters and starred
// letters) yields an NFA whose states form a chain: every transition goes
// from state s to s or s+1. Reachable-node sets can therefore be computed
// state by state over per-node masks instead of a (node, state) hash map —
// the representation shift that makes the T8/F1 hot path fast.
package graph

import (
	"slices"
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
			slices.Sort(row)
		}
	}
	return cs
}

// pairEvaluator is the sparse single-pair product BFS behind Selects,
// SelectsMany and Disagree: an explicit (node, state) worklist with an
// epoch-stamped visited array, so a probe costs O(configurations reached),
// never O(n) bitset sweeps per frontier round. A single pair has no lanes to
// share, so it keeps this engine; many pairs go to EvalPairs' bit-parallel
// passes instead.
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
// the pool-restricted evaluation behind sparse interactive sessions. The
// pairs' distinct sources ride 64 to a pass through a bit-parallel product
// BFS that closes starred atoms over the label's strongly connected
// components (see lanes.go); when the distinct destinations fill fewer
// passes, the lanes carry destinations backward instead. Work follows the
// passes and the part of the graph they reach, never the n² pair space, so
// candidate membership over a question pool stays cheap on graphs far beyond
// the all-pairs regime. It is EvalPairsMany over one query, whose trie is a
// single chain. Pair node indexes must be valid.
func (g *Graph) EvalPairs(q PathQuery, pairs []Pair) []bool {
	return g.EvalPairsMany([]PathQuery{q}, pairs, nil)[0]
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

// Selects reports whether the query selects the given pair, with one sparse
// product BFS in the direction — forward from src or backward from dst —
// whose first-frontier estimate is smaller.
func (g *Graph) Selects(q PathQuery, src, dst int) bool {
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
