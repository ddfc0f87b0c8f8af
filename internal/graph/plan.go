// Greedily-planned, streaming evaluation: the forward/backward direction of
// single-pair probes (Selects, SelectsManyStream) from frontier-size
// estimates, and streaming Sink-based verdict delivery with early
// termination. EvalPairsStream's lane side is chosen in lanes.go by counting
// passes.
//
// The estimates are the cheapest numbers already on hand — CSR row lengths
// (per-label in/out degrees) read straight from the interned index — in the
// "greedy beats optimal" discipline: no statistics are maintained, planning
// is a handful of integer reads per operand, and the greedy cheapest-first
// choice wins because pattern-query work is dominated by the first frontier
// expansion.
package graph

import "querylearn/internal/plan"

// PairVerdict is one streamed membership verdict: whether the query selects
// pairs[Index].
type PairVerdict struct {
	Index    int
	Selected bool
}

// planLayer names used in querylearn_plan_* metric labels.
const (
	layerEvalPairs = "graph.evalpairs"
	layerSelects   = "graph.selects"
)

// pushBack marks (node, state) reached backward from the accepting
// configuration, closing the reversed epsilon transitions: a starred atom
// s-1 lets (x, s-1) advance to (x, s) for free, so backward reachability of
// (x, s) implies backward reachability of (x, s-1).
func (ev *pairEvaluator) pushBack(node, state int) {
	for {
		idx := node*(ev.k+1) + state
		if ev.visited[idx] == ev.epoch {
			return
		}
		ev.visited[idx] = ev.epoch
		ev.stack = append(ev.stack, int64(idx))
		if state > 0 && ev.q.Atoms[state-1].Star {
			state--
			continue
		}
		return
	}
}

// runBack explores every configuration that can reach (dst, k) — the exact
// reverse of run's forward exploration, over the reverse CSR. Membership of
// a source is then a visited probe at state 0.
func (ev *pairEvaluator) runBack(dst int) {
	ev.epoch++
	if ev.epoch == 0 { // wrapped: invalidate stale stamps
		for i := range ev.visited {
			ev.visited[i] = 0
		}
		ev.epoch = 1
	}
	ev.stack = ev.stack[:0]
	ev.pushBack(dst, ev.k)
	for len(ev.stack) > 0 {
		idx := ev.stack[len(ev.stack)-1]
		ev.stack = ev.stack[:len(ev.stack)-1]
		node, state := int(idx)/(ev.k+1), int(idx)%(ev.k+1)
		// Reversed star self-loop at state: an a_state-labeled in-edge
		// arrives at (node, state) from (from, state).
		if state < ev.k && ev.q.Atoms[state].Star {
			if lid := ev.lids[state]; lid >= 0 {
				for _, from := range ev.ix.in[lid].row(node) {
					ev.pushBack(int(from), state)
				}
			}
		}
		// Reversed consuming step: a non-starred a_{state-1} in-edge arrives
		// at (node, state) from (from, state-1).
		if state > 0 && !ev.q.Atoms[state-1].Star {
			if lid := ev.lids[state-1]; lid >= 0 {
				for _, from := range ev.ix.in[lid].row(node) {
					ev.pushBack(int(from), state-1)
				}
			}
		}
	}
}

// coselects reports whether the last runBack reached (src, 0).
func (ev *pairEvaluator) coselects(src int) bool {
	return ev.visited[src*(ev.k+1)] == ev.epoch
}

// frontierOut estimates a forward BFS's first frontier from src: the CSR
// out-degree under the query's first label, plus the source itself.
func (ev *pairEvaluator) frontierOut(src int) int {
	if ev.k == 0 || ev.lids[0] < 0 {
		return 1
	}
	return 1 + len(ev.ix.out[ev.lids[0]].row(src))
}

// frontierIn estimates a backward BFS's first frontier from dst: the CSR
// in-degree under the query's last label, plus the destination itself.
func (ev *pairEvaluator) frontierIn(dst int) int {
	if ev.k == 0 || ev.lids[ev.k-1] < 0 {
		return 1
	}
	return 1 + len(ev.ix.in[ev.lids[ev.k-1]].row(dst))
}

// SelectsManyStream streams each query's verdict on the pair, in query
// order; a false sink return stops the evaluation — the early exit behind
// disagreement probes, which need only the first verdict that differs. One
// visited array sized for the longest query is shared across the runs, and
// each run picks forward or backward BFS from the pair's degree estimates.
func (g *Graph) SelectsManyStream(qs []PathQuery, src, dst int, sink plan.Sink[PairVerdict]) {
	if len(qs) == 0 || len(g.nodes) == 0 {
		return
	}
	maxK := 0
	for _, q := range qs {
		if len(q.Atoms) > maxK {
			maxK = len(q.Atoms)
		}
	}
	shared := make([]uint32, len(g.nodes)*(maxK+1))
	epoch := uint32(0)
	for i, q := range qs {
		ev := newPairEvaluatorPlan(g, q)
		ev.visited = shared[:len(g.nodes)*(ev.k+1)]
		ev.epoch = epoch
		var sel bool
		if ev.k > 0 && ev.frontierIn(dst) < ev.frontierOut(src) {
			ev.runBack(dst)
			sel = ev.coselects(src)
		} else {
			ev.run(src)
			sel = ev.selects(dst)
		}
		epoch = ev.epoch
		if !sink(PairVerdict{Index: i, Selected: sel}) {
			return
		}
	}
}

// Disagree reports whether the queries disagree on the pair, stopping at
// the first verdict that differs from the first query's — the streamed form
// of "is this pair informative for this candidate set".
func (g *Graph) Disagree(qs []PathQuery, src, dst int) bool {
	if len(qs) < 2 {
		return false
	}
	first, disagree := false, false
	g.SelectsManyStream(qs, src, dst, func(v PairVerdict) bool {
		if v.Index == 0 {
			first = v.Selected
			return true
		}
		if v.Selected != first {
			disagree = true
			plan.CountEarlyStop(layerSelects)
			return false
		}
		return true
	})
	return disagree
}
