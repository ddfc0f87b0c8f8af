// Greedily-planned, streaming evaluation: per-source forward/backward BFS
// direction choice from frontier-size estimates, and streaming Sink-based
// result delivery with early termination.
//
// The estimates are the cheapest numbers already on hand — CSR row lengths
// (per-label in/out degrees) read straight from the interned index — in the
// "greedy beats optimal" discipline: no statistics are maintained, planning
// is a handful of integer reads per operand, and the greedy cheapest-first
// choice wins because pattern-query work is dominated by the first frontier
// expansion. QUERYLEARN_NOPLAN (plan.Disabled) reverts every entry point to
// the fixed forward-only order of the PR 5 engine.
package graph

import (
	"runtime"
	"sync"
	"sync/atomic"

	"querylearn/internal/plan"
)

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

// pairTask is one unit of planned evaluation: a forward BFS from a source
// (answering every pair sharing it) or a backward BFS from a destination.
type pairTask struct {
	node     int
	indexes  []int // pair indexes this run answers
	backward bool
}

// EvalPairsStream is EvalPairs with planner attribution and streaming
// delivery: verdicts are emitted to the sink as each per-node BFS finishes
// (order unspecified), and a false return from the sink stops the stream —
// in-flight runs complete but emit nothing further. rec (nil-safe) receives
// the planning time and direction decisions for request-trace attribution.
func (g *Graph) EvalPairsStream(q PathQuery, pairs []Pair, rec *plan.Recorder, sink plan.Sink[PairVerdict]) {
	if len(pairs) == 0 || len(g.nodes) == 0 {
		return
	}
	proto := newPairEvaluator(g, q)
	tasks := planPairTasks(proto, pairs, rec)
	runPairTasks(proto, pairs, tasks, sink)
}

// planPairTasks groups the pairs by source and greedily picks, per group,
// forward BFS from the source or backward BFS from each of the group's
// destinations — whichever the frontier estimates price cheaper. Backward
// runs are deduplicated across groups: one destination shared by many
// sources costs one run, the shape (many sources probing one hub) where
// backward evaluation beats the fixed forward order by the group count.
func planPairTasks(proto *pairEvaluator, pairs []Pair, rec *plan.Recorder) []pairTask {
	// Group pair indexes by source, preserving first-occurrence order of the
	// sources for deterministic scheduling.
	bySrc := make(map[int][]int)
	var sources []int
	for i, p := range pairs {
		if _, ok := bySrc[p.Src]; !ok {
			sources = append(sources, p.Src)
		}
		bySrc[p.Src] = append(bySrc[p.Src], i)
	}
	if plan.Disabled() || proto.k == 0 {
		// Unplanned (or trivial empty-query) path: the PR 5 fixed order, one
		// forward run per distinct source.
		tasks := make([]pairTask, len(sources))
		for i, src := range sources {
			tasks[i] = pairTask{node: src, indexes: bySrc[src]}
		}
		return tasks
	}
	done := rec.StartPlan(layerEvalPairs)
	var tasks []pairTask
	byDst := make(map[int][]int) // dst -> pair indexes answered backward
	var dsts []int
	forward, backward := 0, 0
	for _, src := range sources {
		idxs := bySrc[src]
		fc := proto.frontierOut(src)
		bc := 0
		for _, i := range idxs {
			d := pairs[i].Dst
			if shared := byDst[d]; len(shared) > 0 {
				continue // a backward run for d is already paid for
			}
			bc += proto.frontierIn(d)
			if bc >= fc {
				break // already at least as expensive as forward
			}
		}
		// bc == 0 means every destination already has a backward run
		// scheduled: answering this group backward is free piggybacking.
		if fc <= bc {
			tasks = append(tasks, pairTask{node: src, indexes: idxs})
			forward++
			continue
		}
		for _, i := range idxs {
			d := pairs[i].Dst
			if _, ok := byDst[d]; !ok {
				dsts = append(dsts, d)
			}
			byDst[d] = append(byDst[d], i)
		}
		backward++
	}
	for _, d := range dsts {
		tasks = append(tasks, pairTask{node: d, indexes: byDst[d], backward: true})
	}
	done()
	rec.Decide(layerEvalPairs, "forward", forward)
	rec.Decide(layerEvalPairs, "backward", backward)
	return tasks
}

// runPairTasks executes the planned runs — in parallel past a handful of
// tasks — streaming each run's verdicts to the sink. Emission is serialized
// under a mutex; a false sink return sets the stop flag and workers exit at
// their next task claim.
func runPairTasks(proto *pairEvaluator, pairs []Pair, tasks []pairTask, sink plan.Sink[PairVerdict]) {
	probe := func(ev *pairEvaluator, t pairTask, emit func(PairVerdict) bool) bool {
		if t.backward {
			ev.runBack(t.node)
			for _, i := range t.indexes {
				if !emit(PairVerdict{Index: i, Selected: ev.coselects(pairs[i].Src)}) {
					return false
				}
			}
			return true
		}
		ev.run(t.node)
		for _, i := range t.indexes {
			if !emit(PairVerdict{Index: i, Selected: ev.selects(pairs[i].Dst)}) {
				return false
			}
		}
		return true
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 || len(tasks) < 32 {
		for _, t := range tasks {
			if !probe(proto, t, sink) {
				return
			}
		}
		return
	}
	var stop atomic.Bool
	var mu sync.Mutex
	emit := func(v PairVerdict) bool {
		mu.Lock()
		defer mu.Unlock()
		if stop.Load() {
			return false
		}
		if !sink(v) {
			stop.Store(true)
			return false
		}
		return true
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := proto.fork()
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if !probe(ev, tasks[i], emit) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// EvalStream evaluates the query over the whole graph, streaming the
// selected pairs to the sink in (src, dst) ascending order — the same order
// Eval materializes — with early termination: a false return stops the
// stream. Sources still run in parallel; a reorder window holds finished
// sources until their turn so emission order stays deterministic.
func (g *Graph) EvalStream(q PathQuery, sink plan.Sink[Pair]) {
	if len(g.nodes) == 0 {
		return
	}
	proto := newEvaluator(g, q)
	sources := proto.canAccept[0].Slice()
	if len(sources) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers <= 1 || len(sources) < 32 {
		for _, src := range sources {
			for _, d := range proto.run(src).Slice() {
				if !sink(Pair{Src: src, Dst: d}) {
					return
				}
			}
		}
		return
	}
	results := make([][]int, len(sources))
	done := make(chan int, len(sources))
	var stop atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := proto.fork()
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(sources) {
					return
				}
				results[i] = ev.run(sources[i]).Slice()
				done <- i
			}
		}()
	}
	// Ordered emission: advance a frontier over completed sources, emitting
	// each source's pairs only after every earlier source has been emitted.
	ready := make([]bool, len(sources))
	next, received := 0, 0
	for received < len(sources) && !stop.Load() {
		i := <-done
		received++
		ready[i] = true
		for next < len(sources) && ready[next] {
			src := sources[next]
			for _, d := range results[next] {
				if !sink(Pair{Src: src, Dst: d}) {
					stop.Store(true)
					break
				}
			}
			results[next] = nil
			if stop.Load() {
				break
			}
			next++
		}
	}
	stop.Store(true)
	wg.Wait()
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
	planned := !plan.Disabled()
	shared := make([]uint32, len(g.nodes)*(maxK+1))
	epoch := uint32(0)
	for i, q := range qs {
		ev := newPairEvaluatorPlan(g, q)
		ev.visited = shared[:len(g.nodes)*(ev.k+1)]
		ev.epoch = epoch
		var sel bool
		if planned && ev.k > 0 && ev.frontierIn(dst) < ev.frontierOut(src) {
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
