package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"querylearn/internal/plan"
)

// evalPairsDir runs the lane kernel over a query set with the lanes forced
// onto one side.
func evalPairsDir(g *Graph, qs []PathQuery, pairs []Pair, backward bool) [][]bool {
	out := make([][]bool, len(qs))
	for i := range out {
		out[i] = make([]bool, len(pairs))
	}
	if len(pairs) == 0 || g.NumNodes() == 0 {
		return out
	}
	s := getLanes(g.NumNodes())
	defer putLanes(s)
	g.evalLanes(s, qs, pairs, backward, out)
	return out
}

// laneGraph is a random graph over labels a, b, c with the shapes star
// closures must get right planted in it: a multi-node a-cycle, an a-cycle
// with a b-chord, a b-cycle through the a-cycle, and self-loops.
func laneGraph(rng *rand.Rand, n int) *Graph {
	g := randomGraph(rng, n, 3*n, []string{"a", "b", "c"})
	name := func(i int) string { return fmt.Sprintf("n%d", i%n) }
	for i := 0; i < 12; i++ {
		g.AddEdge(name(i), "a", name(i+1))
	}
	g.AddEdge(name(12), "a", name(0))
	g.AddEdge(name(5), "b", name(40))
	for i := 40; i < 45; i++ {
		g.AddEdge(name(i), "a", name(i+1))
	}
	g.AddEdge(name(45), "a", name(40))
	g.AddEdge(name(44), "b", name(3))
	for _, v := range []int{7, 41, 60} {
		g.AddEdge(name(v), "a", name(v))
		g.AddEdge(name(v), "b", name(v))
	}
	return g
}

// sidePool draws pairs whose lane side — sources, or destinations when
// dstSide — has exactly count distinct nodes, several pairs per node.
func sidePool(rng *rand.Rand, n, count int, dstSide bool) []Pair {
	side := rng.Perm(n)[:count]
	var ps []Pair
	for _, v := range side {
		for j := 1 + rng.Intn(3); j > 0; j-- {
			p := Pair{Src: v, Dst: rng.Intn(n)}
			if dstSide {
				p = Pair{Src: rng.Intn(n), Dst: v}
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// The lane kernel must equal the naive oracle, with the lanes on either
// side, across pass boundaries (63/64/65/128/129 distinct lane nodes), hub
// pools, star closures over cycles and self-loops, and the degenerate
// queries and pairs.
func TestDifferentialLanesVsNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 300
	rng := rand.New(rand.NewSource(14))
	g := laneGraph(rng, n)

	type pool struct {
		name     string
		pairs    []Pair
		backward bool // EvalPairs must put the lanes on destinations
	}
	var pools []pool
	for _, count := range []int{63, 64, 65, 128, 129} {
		pools = append(pools,
			pool{name: fmt.Sprintf("%d-sources", count), pairs: sidePool(rng, n, count, false)},
			pool{name: fmt.Sprintf("%d-destinations", count), pairs: sidePool(rng, n, count, true)})
	}
	hub := func(hubs ...int) []Pair {
		var ps []Pair
		for s := 0; s < n; s++ {
			ps = append(ps, Pair{Src: s, Dst: hubs[s%len(hubs)]})
		}
		return ps
	}
	pools = append(pools,
		pool{name: "hub", pairs: hub(3), backward: true},
		pool{name: "65-hubs", pairs: hub(rng.Perm(n)[:65]...), backward: true})
	var mixed []Pair
	for i := 0; i < 200; i++ {
		mixed = append(mixed, Pair{Src: rng.Intn(n), Dst: rng.Intn(n)})
	}
	mixed = append(mixed, mixed[:40]...) // duplicates answer alike
	for _, v := range []int{0, 7, 12, 40, 41, 60, 299} {
		mixed = append(mixed, Pair{Src: v, Dst: v})
	}
	pools = append(pools, pool{name: "duplicates-and-self-pairs", pairs: mixed})

	queries := []string{
		"", "a", "a*", "a*.a*", "a.a*.a", "a*.b", "b.a*", "a*.b.c*", "b*.a*.b*",
		"c*.a.b*.a*", "a.b.c", "z", "z*", "a.z*", "z*.a*", "a*.z.b", "a*.b*.c*.a*",
	}
	for _, p := range pools {
		for _, qs := range queries {
			q := MustParsePathQuery(qs)
			naive := g.EvalPairsNaive(q, p.pairs)
			var rec plan.Recorder
			got := g.EvalPairsMany([]PathQuery{q}, p.pairs, &rec)[0]
			fwd := evalPairsDir(g, []PathQuery{q}, p.pairs, false)[0]
			bwd := evalPairsDir(g, []PathQuery{q}, p.pairs, true)[0]
			for i, pr := range p.pairs {
				if got[i] != naive[i] || fwd[i] != naive[i] || bwd[i] != naive[i] {
					t.Fatalf("%s q=%q pair %v: EvalPairs=%v forward=%v backward=%v naive=%v",
						p.name, qs, pr, got[i], fwd[i], bwd[i], naive[i])
				}
			}
			if _, ds, _ := rec.Drain(); p.backward && (len(ds) != 1 || ds[0].Choice != "backward") {
				t.Fatalf("%s q=%q: decisions %+v, want backward lanes", p.name, qs, ds)
			}
		}
	}
}

// The hub shape — many sources probing one destination — takes one backward
// pass instead of a forward pass per 64 sources; a tie in passes goes
// forward.
func TestHubPoolRunsOneBackwardPass(t *testing.T) {
	g := New()
	// 100 sources (two forward passes) each reach the hub t00 over one of
	// their 8 a-edges; the hub is the pool's only destination.
	for i := 0; i < 100; i++ {
		for j := 0; j < 8; j++ {
			g.AddEdge(node("s", i), "a", node("t", (i+j)%100))
		}
	}
	q := MustParsePathQuery("a")
	hubID := g.NodeIndex(node("t", 0))
	var pairs []Pair
	for i := 0; i < 100; i++ {
		pairs = append(pairs, Pair{Src: g.NodeIndex(node("s", i)), Dst: hubID})
	}
	var rec plan.Recorder
	g.EvalPairsMany([]PathQuery{q}, pairs[:64], &rec)
	_, decisions, _ := rec.Drain()
	if len(decisions) != 1 || decisions[0] != (plan.Decision{Layer: "graph.evalpairs", Choice: "forward", N: 1}) {
		t.Fatalf("64 sources, one destination: decisions = %+v, want one forward pass", decisions)
	}
	got := g.EvalPairsMany([]PathQuery{q}, pairs, &rec)[0]
	_, decisions, _ = rec.Drain()
	if len(decisions) != 1 || decisions[0] != (plan.Decision{Layer: "graph.evalpairs", Choice: "backward", N: 1}) {
		t.Fatalf("100 sources, one destination: decisions = %+v, want one backward pass", decisions)
	}
	naive := g.EvalPairsNaive(q, pairs)
	for i := range pairs {
		if got[i] != naive[i] {
			t.Fatalf("pair %v: lanes=%v naive=%v", pairs[i], got[i], naive[i])
		}
	}
	if !got[0] {
		t.Fatal("s00 -a-> t00 edge not found by the backward pass")
	}
}

// EvalPairsMany and EvalPairs from several goroutines on one graph, each
// call fanning its passes out over more workers' worth of passes than
// GOMAXPROCS and the shared calls branching their tries, must match a
// sequential run (run under -race -count=10).
func TestEvalPairsConcurrentCalls(t *testing.T) {
	g := GenerateGeo(21, 600)
	rng := rand.New(rand.NewSource(8))
	var pairs []Pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs, Pair{Src: rng.Intn(600), Dst: rng.Intn(600)})
	}
	var queries []PathQuery
	for _, qs := range []string{
		"highway*.road", "road*", "highway.road*.ferry*", "train*.highway*",
		"highway*.road*", "highway*.ferry", "highway.road*", "road*.highway",
	} {
		queries = append(queries, MustParsePathQuery(qs))
	}
	prev := runtime.GOMAXPROCS(1)
	want := make([][]bool, len(queries))
	for i, q := range queries {
		want[i] = g.EvalPairs(q, pairs)
	}
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := getLanes(g.NumNodes())
	if p := min(s.passes(pairs, false), s.passes(pairs, true)); p <= 4 {
		t.Fatalf("only %d passes; the test needs more than GOMAXPROCS", p)
	}
	putLanes(s)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Even workers make one shared call, odd ones a call per query.
			var got [][]bool
			if w%2 == 0 {
				got = g.EvalPairsMany(queries, pairs, nil)
			} else {
				for _, q := range queries {
					got = append(got, g.EvalPairs(q, pairs))
				}
			}
			for i, q := range queries {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Errorf("worker %d q=%v pair %v: concurrent %v, sequential %v", w, q, pairs[j], got[i][j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A shared call must give every query the verdicts the naive oracle gives
// it alone, whatever the query set makes of the trie: shared prefixes and
// shared suffixes (prefixes of the backward sequences), a query that is a
// prefix of another, duplicates, the empty query, and absent plain and
// starred labels with siblings after them. The lanes are forced onto each
// side across pass boundaries (63/64/65/129 lane-side nodes), and the call
// also runs with its own choice of side.
func TestDifferentialEvalPairsManyVsNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 300
	rng := rand.New(rand.NewSource(25))
	g := laneGraph(rng, n)

	type querySet struct {
		name    string
		queries []string
	}
	sets := []querySet{
		{"shared-prefixes", []string{"a.b", "a.b*", "a.c", "a*.b", "a*.b.c", "a", "a.b.a*"}},
		{"shared-suffixes", []string{"b.a", "b*.a", "c.b.a", "a*.b.a", "c.a", "a*.b*.a", "a"}},
		{"prefix-chain", []string{"a.b.c.a*", "a", "a.b.c", "a.b", "b*.c", "b*"}},
		{"duplicates", []string{"a.b*", "b", "a.b*", "b", "c*.a", "c*.a"}},
		{"empty", []string{"", "a", "a*", "", "a*.b*"}},
		{"absent-mid", []string{"a.z.b", "a.z*.b", "a.z*", "a.z", "a.b", "z*.a", "z.a", "a.z*.b*.c"}},
		// The candidates of a seed word a.b.b: a run choice per label.
		{"seed-product", []string{
			"a.b.b", "a.b*", "a.b.b*", "a.b.b.b*", "a*.b.b", "a*.b*", "a*.b.b*", "a*.b.b.b*",
			"a.a*.b.b", "a.a*.b*", "a.a*.b.b*", "a.a*.b.b.b*",
		}},
	}
	var random []string
	for i := 0; i < 10; i++ {
		random = append(random, randomQuery(rng, []string{"a", "b", "c"}).String())
	}
	sets = append(sets, querySet{"random", random})

	type pool struct {
		name  string
		pairs []Pair
	}
	var pools []pool
	for _, count := range []int{63, 64, 65, 129} {
		pools = append(pools,
			pool{fmt.Sprintf("%d-sources", count), sidePool(rng, n, count, false)},
			pool{fmt.Sprintf("%d-destinations", count), sidePool(rng, n, count, true)})
	}
	for _, set := range sets {
		qs := make([]PathQuery, len(set.queries))
		for i, s := range set.queries {
			qs[i] = MustParsePathQuery(s)
		}
		for _, p := range pools {
			runs := []struct {
				name string
				got  [][]bool
			}{
				{"forward", evalPairsDir(g, qs, p.pairs, false)},
				{"backward", evalPairsDir(g, qs, p.pairs, true)},
				{"chosen", g.EvalPairsMany(qs, p.pairs, nil)},
			}
			for i, q := range qs {
				naive := g.EvalPairsNaive(q, p.pairs)
				for _, run := range runs {
					for j, pr := range p.pairs {
						if run.got[i][j] != naive[j] {
							t.Fatalf("%s/%s %s: query %d (%q) pair %v: %v, naive %v",
								set.name, p.name, run.name, i, set.queries[i], pr, run.got[i][j], naive[j])
						}
					}
				}
			}
		}
	}
	if out := g.EvalPairsMany(nil, pools[0].pairs, nil); len(out) != 0 {
		t.Fatalf("no queries: %v", out)
	}
	if out := g.EvalPairsMany([]PathQuery{{}, {}}, nil, nil); len(out) != 2 || len(out[0]) != 0 || len(out[1]) != 0 {
		t.Fatalf("no pairs: %v", out)
	}
}
