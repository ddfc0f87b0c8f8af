package experiments

import (
	"fmt"
	"time"

	"querylearn/internal/graph"
	"querylearn/internal/plan"
	"querylearn/internal/rellearn"
)

// T19 benchmarks the planning layer (internal/plan) on the workloads it was
// built for, each against its naive oracle: large-graph pair membership,
// where EvalPairs puts its 64-lane passes on the side whose distinct nodes
// fill fewer passes; and high-arity semijoin consistency, where the dynamic
// witness order competes with the static one the naive search keeps. The
// hub workload is the direction choice's target shape — many sources
// probing one destination, one backward pass instead of a forward pass per
// 64 sources.

// t19Query is the hub workload's pattern: the geo generator's highway
// backbone is one connected two-way path over n/3 cities, so every forward
// pass from backbone sources closes highway* over the whole backbone before
// the final ferry hop — while the backward pass from the hub walks it once.
var t19Query = graph.MustParsePathQuery("highway*.ferry")

// t19HubWorkload picks a hub destination with exactly one ferry in-edge and
// backbone sources (highway out-degree at least 2) to probe it.
func t19HubWorkload(g *graph.Graph, nSources int) []graph.Pair {
	n := g.NumNodes()
	ferryIn := make([]int, n)
	highwayOut := make([]int, n)
	for s := 0; s < n; s++ {
		g.Out(s, func(label string, to int) {
			switch label {
			case "ferry":
				ferryIn[to]++
			case "highway":
				highwayOut[s]++
			}
		})
	}
	// Exactly one ferry in-edge keeps the backward estimate (1 + in-degree)
	// strictly under the forward one (1 + highway out-degree >= 3).
	hub := -1
	for d := 0; d < n; d++ {
		if ferryIn[d] == 1 {
			hub = d
			break
		}
	}
	if hub < 0 {
		return nil
	}
	pairs := make([]graph.Pair, 0, nSources)
	for s := 0; s < n && len(pairs) < nSources; s++ {
		if s != hub && highwayOut[s] >= 2 {
			pairs = append(pairs, graph.Pair{Src: s, Dst: hub})
		}
	}
	return pairs
}

// t19Graph runs the hub workload planned and through the naive oracle, and
// appends one row each. The naive oracle only sees a subset of the pairs (a
// map-backed BFS per source is unaffordable at full size); its total is
// extrapolated per-pair and marked as such.
func t19Graph(t *Table, nodes, nSources, naiveSubset int) {
	g := graph.GenerateGeo(int64(nodes), nodes)
	pairs := t19HubWorkload(g, nSources)
	if len(pairs) == 0 {
		t.Rows = append(t.Rows, []string{"hub-pairs", fmt.Sprint(nodes), "ERROR", "no hub found", "", ""})
		return
	}
	size := fmt.Sprintf("n=%d pairs=%d", nodes, len(pairs))

	// The graph's label index is built on first use: build it before timing
	// so that neither row pays it.
	g.EvalPairs(t19Query, pairs[:1])

	var rec plan.Recorder
	planned := make([]bool, len(pairs))
	start := time.Now()
	g.EvalPairsStream(t19Query, pairs, &rec, func(v graph.PairVerdict) bool {
		planned[v.Index] = v.Selected
		return true
	})
	plannedMS := time.Since(start).Seconds() * 1000
	_, decisions, _ := rec.Drain()
	work := ""
	for _, d := range decisions {
		if work != "" {
			work += " "
		}
		work += fmt.Sprintf("%d %s pass", d.N, d.Choice)
		if d.N != 1 {
			work += "es"
		}
	}

	if naiveSubset > len(pairs) {
		naiveSubset = len(pairs)
	}
	start = time.Now()
	naive := g.EvalPairsNaive(t19Query, pairs[:naiveSubset])
	naiveMS := time.Since(start).Seconds() * 1000
	for i := range naive {
		if naive[i] != planned[i] {
			t.Rows = append(t.Rows, []string{"hub-pairs", size, "ERROR",
				fmt.Sprintf("verdict %d differs naive vs planned", i), "", ""})
			return
		}
	}
	naiveFullMS := naiveMS * float64(len(pairs)) / float64(naiveSubset)

	t.Rows = append(t.Rows,
		[]string{"hub-pairs", size, "lanes, planned", work,
			fmt.Sprintf("%.1f", plannedMS), "1.0x"},
		[]string{"hub-pairs", size, "naive (PR 1)",
			fmt.Sprintf("extrapolated from %d pairs", naiveSubset),
			fmt.Sprintf("%.0f", naiveFullMS), fmt.Sprintf("%.1fx", naiveFullMS/plannedMS)},
	)
}

// t19Semijoin contrasts the planner's dynamic witness re-ranking against the
// static fail-first order of the naive search on high-arity semijoin
// consistency, positive-heavy labelings (the shape where the survivor set
// collapses and the dynamic order's free-family short-circuit fires).
func t19Semijoin(t *Table, k, trials int) {
	const n, budget = 16, 1 << 22
	var plannedTotal, naiveTotal time.Duration
	var plannedNodes, naiveNodes int
	size := fmt.Sprintf("k=%d n=%d trials=%d", k, n, trials)
	for trial := 0; trial < trials; trial++ {
		l, r := RandomJoinInstance(int64(k)*31+int64(trial), k, n, 2)
		u := rellearn.NewUniverse(l, r)
		var exs []rellearn.SemijoinExample
		for i := 0; i < l.Len(); i++ {
			exs = append(exs, rellearn.SemijoinExample{Left: i, Positive: i%5 != 0})
		}

		start := time.Now()
		_, pok, stats, perr := rellearn.SemijoinConsistent(u, exs, budget)
		plannedTotal += time.Since(start)
		plannedNodes += stats.NodesExplored

		start = time.Now()
		_, nok, stats, nerr := rellearn.SemijoinConsistentNaive(u, exs, budget)
		naiveTotal += time.Since(start)
		naiveNodes += stats.NodesExplored

		if pok != nok || (perr == nil) != (nerr == nil) {
			t.Rows = append(t.Rows, []string{"semijoin", size, "ERROR",
				fmt.Sprintf("trial %d: decision planned %v (err %v) vs naive %v (err %v)", trial, pok, perr, nok, nerr), "", ""})
			return
		}
	}
	t.Rows = append(t.Rows,
		[]string{"semijoin", size, "planned",
			fmt.Sprintf("%d nodes", plannedNodes),
			fmt.Sprintf("%.1f", plannedTotal.Seconds()*1000), "1.0x"},
		[]string{"semijoin", size, "naive (static order)",
			fmt.Sprintf("%d nodes", naiveNodes),
			fmt.Sprintf("%.1f", naiveTotal.Seconds()*1000),
			fmt.Sprintf("%.1fx", float64(naiveTotal)/float64(plannedTotal))},
	)
}

// T19PlannedEvaluation measures the planning layer's wins over the engines
// it replaced, on the workloads it was built for.
func T19PlannedEvaluation(scale int) *Table {
	t := &Table{
		ID:     "T19",
		Title:  "greedy planning: planned evaluation vs the naive oracles",
		Claim:  "pass counts over the pool and constant-time popcount estimates choose the evaluation order without maintaining statistics: one backward pass answers a hub pool, and greedy re-ranking explores fewer semijoin nodes than the static order (ROADMAP: streaming, greedily-planned consistency checking)",
		Header: []string{"workload", "size", "engine", "work", "time ms", "speedup"},
	}
	type gcfg struct{ nodes, sources, naiveSubset int }
	gcfgs := []gcfg{{20000, 1000, 64}, {100000, 2000, 48}}
	// The dynamic witness order needs the single-word DFS (kl·kr <= 64 attr
	// pairs), so 8x8 attributes is the top of the planned range.
	semiKs := []int{6, 8}
	trials := 8
	if scale > 1 {
		gcfgs = append(gcfgs, gcfg{100000, 8000, 48})
	}
	if raceEnabled || underGoTest() {
		// Smoke sizes: same code paths, affordable under `go test -race`.
		// The full sizes run once in CI via make bench-t19.
		gcfgs = []gcfg{{4000, 200, 16}}
		semiKs = []int{6}
		trials = 3
	}
	for _, c := range gcfgs {
		t19Graph(t, c.nodes, c.sources, c.naiveSubset)
	}
	for _, k := range semiKs {
		t19Semijoin(t, k, trials)
	}
	t.Notes = append(t.Notes,
		"hub-pairs: every pair probes one destination; planned EvalPairs counts passes per side and carries the one destination in a single backward pass instead of one forward pass (and one highway* backbone closure) per 64 sources",
		"the naive (PR 1) column is extrapolated from a pair subset — a map-backed BFS per source is unaffordable at full size",
		"semijoin: dynamic re-ranking by surviving-witness popcount with the free-family short-circuit, against the static fail-first order; the naive search walks exactly the static search's tree (the differential tests pin its node counts), so the node columns compare the two orders, while its time also carries the naive representation's per-node cost; node counts are summed over the trials",
		"speedup is the engine's time over the planned time on the identical workload; verdict equality planned == naive (hub pairs) and decision equality planned == naive (semijoin) are asserted before timing is reported")
	return t
}
