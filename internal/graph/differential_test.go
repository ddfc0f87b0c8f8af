package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Differential property tests: the CSR/bitset evaluation core must agree
// with the retained naive implementations on randomized graphs and queries
// (fixed seeds for reproducibility).

func randomGraph(rng *rand.Rand, nNodes, nEdges int, labels []string) *Graph {
	g := New()
	for i := 0; i < nNodes; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for e := 0; e < nEdges; e++ {
		f := rng.Intn(nNodes)
		t := rng.Intn(nNodes)
		g.AddEdge(fmt.Sprintf("n%d", f), labels[rng.Intn(len(labels))], fmt.Sprintf("n%d", t))
	}
	return g
}

func randomQuery(rng *rand.Rand, labels []string) PathQuery {
	var q PathQuery
	// Length 0..4; labels drawn from the alphabet plus one absent label.
	for i, k := 0, rng.Intn(5); i < k; i++ {
		l := "absent"
		if rng.Intn(8) > 0 {
			l = labels[rng.Intn(len(labels))]
		}
		q.Atoms = append(q.Atoms, Atom{Label: l, Star: rng.Intn(2) == 0})
	}
	return q
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalFrom is Eval restricted to one source: its destinations, ascending.
func evalFrom(g *Graph, q PathQuery, src int) []int {
	var out []int
	for _, p := range g.Eval(q) {
		if p.Src == src {
			out = append(out, p.Dst)
		}
	}
	return out
}

// Eval must equal the naive oracle, order included, on random graphs and
// queries, and across pass boundaries (63/64/65/128/129 sources) on graphs
// with star closures over cycles and self-loops, starred first and last
// atoms, absent plain and starred labels, and the empty query.
func TestDifferentialEvalVsNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n), labels)
		for qi := 0; qi < 5; qi++ {
			q := randomQuery(rng, labels)
			fast := g.Eval(q)
			naive := g.EvalNaive(q)
			if !pairsEqual(fast, naive) {
				t.Fatalf("seed %d query %s: Eval fast %v != naive %v", seed, q, fast, naive)
			}
			src := rng.Intn(n)
			if ff, nf := evalFrom(g, q, src), g.EvalFromNaive(q, src); fmt.Sprint(ff) != fmt.Sprint(nf) {
				t.Fatalf("seed %d query %s src %d: Eval from src %v != naive %v", seed, q, src, ff, nf)
			}
		}
	}
	queries := []string{
		"", "a", "a*", "c", "c.a*", "a*.b", "b.a*", "a*.b*", "c*.a.b*.a*", "a.b.c",
		"z", "z*", "c.z", "a.z*", "z*.a*", "a*.z.b", "a*.b*.c*.a*",
	}
	for _, n := range []int{63, 64, 65, 128, 129} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := laneGraph(rng, n)
		// A c-edge out of every node: plain c-first queries have n sources too.
		for v := 0; v < n; v++ {
			g.AddEdge(fmt.Sprintf("n%d", v), "c", fmt.Sprintf("n%d", rng.Intn(n)))
		}
		for _, qs := range queries {
			q := MustParsePathQuery(qs)
			if fast, naive := g.Eval(q), g.EvalNaive(q); !pairsEqual(fast, naive) {
				t.Fatalf("n=%d query %q: Eval (%d pairs) != naive (%d pairs), or out of order",
					n, qs, len(fast), len(naive))
			}
		}
	}
}

func TestDifferentialSelectsVsNaive(t *testing.T) {
	labels := []string{"x", "y"}
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 25, 70, labels)
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(rng, labels)
		for trial := 0; trial < 30; trial++ {
			src, dst := rng.Intn(25), rng.Intn(25)
			fast := g.Selects(q, src, dst)
			naive := false
			for _, d := range g.EvalFromNaive(q, src) {
				if d == dst {
					naive = true
					break
				}
			}
			if fast != naive {
				t.Fatalf("query %s (%d,%d): Selects fast %v != naive %v", q, src, dst, fast, naive)
			}
		}
	}
}

func TestDifferentialShortestWordVsNaive(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n), labels)
		for trial := 0; trial < 25; trial++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			fast := g.ShortestWord(src, dst)
			naive := g.shortestWordNaive(src, dst)
			if fmt.Sprint(fast) != fmt.Sprint(naive) {
				t.Fatalf("seed %d (%d,%d): ShortestWord fast %v != naive %v", seed, src, dst, fast, naive)
			}
		}
	}
}

// EvalPairs (the pool-restricted evaluation behind sparse interactive
// sessions) must agree with the all-pairs Eval and with the naive per-source
// oracle on randomized graphs, queries, and pair pools — including repeated
// pairs, repeated sources, and self-loops.
func TestDifferentialEvalPairsVsEval(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(4*n), labels)
		for qi := 0; qi < 4; qi++ {
			q := randomQuery(rng, labels)
			selected := map[Pair]bool{}
			for _, p := range g.Eval(q) {
				selected[p] = true
			}
			pairs := make([]Pair, 0, 60)
			for i := 0; i < 50; i++ {
				pairs = append(pairs, Pair{Src: rng.Intn(n), Dst: rng.Intn(n)})
			}
			pairs = append(pairs, pairs[:5]...) // duplicates must answer alike
			for i := 0; i < 5; i++ {
				v := rng.Intn(n)
				pairs = append(pairs, Pair{Src: v, Dst: v})
			}
			got := g.EvalPairs(q, pairs)
			naive := g.EvalPairsNaive(q, pairs)
			for i, p := range pairs {
				if got[i] != selected[p] {
					t.Fatalf("seed %d query %s pair %v: EvalPairs %v, Eval says %v",
						seed, q, p, got[i], selected[p])
				}
				if got[i] != naive[i] {
					t.Fatalf("seed %d query %s pair %v: EvalPairs %v != naive %v",
						seed, q, p, got[i], naive[i])
				}
			}
		}
	}
}

// The parallel EvalPairs path (several passes of 64 lanes) must be
// deterministic and agree with the sequential oracle.
func TestEvalPairsParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := GenerateGeo(13, 200)
	q := MustParsePathQuery("highway.road*")
	rng := rand.New(rand.NewSource(42))
	var pairs []Pair
	for i := 0; i < 400; i++ {
		pairs = append(pairs, Pair{Src: rng.Intn(g.NumNodes()), Dst: rng.Intn(g.NumNodes())})
	}
	first := g.EvalPairs(q, pairs)
	naive := g.EvalPairsNaive(q, pairs)
	for i := range first {
		if first[i] != naive[i] {
			t.Fatalf("pair %v: parallel %v != naive %v", pairs[i], first[i], naive[i])
		}
	}
	for run := 0; run < 3; run++ {
		again := g.EvalPairs(q, pairs)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: nondeterministic answer for %v", run, pairs[i])
			}
		}
	}
}

// SelectsMany shares one visited scratch across queries of different
// lengths; every verdict must still match an independent Selects call.
func TestSelectsManyMatchesSelects(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(5))
	n := 40
	g := randomGraph(rng, n, 120, labels)
	var qs []PathQuery
	for i := 0; i < 10; i++ {
		qs = append(qs, randomQuery(rng, labels))
	}
	for trial := 0; trial < 50; trial++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		got := g.SelectsMany(qs, src, dst)
		for i, q := range qs {
			if want := g.Selects(q, src, dst); got[i] != want {
				t.Fatalf("query %q pair (%d,%d): SelectsMany %v != Selects %v", q, src, dst, got[i], want)
			}
		}
	}
	if out := g.SelectsMany(nil, 0, 0); len(out) != 0 {
		t.Fatalf("empty query list: %v", out)
	}
}

// EvalPairs on empty inputs must not panic.
func TestEvalPairsEmpty(t *testing.T) {
	g := New()
	if got := g.EvalPairs(MustParsePathQuery("a"), nil); len(got) != 0 {
		t.Fatalf("empty graph/pairs: %v", got)
	}
	g.AddEdge("a", "r", "b")
	if got := g.EvalPairs(PathQuery{}, []Pair{{0, 0}, {0, 1}}); !got[0] || got[1] {
		t.Fatalf("empty query: %v (want [true false])", got)
	}
}

// Mutating the graph after an evaluation must invalidate the cached index.
func TestIndexInvalidationOnMutation(t *testing.T) {
	g := New()
	g.AddEdge("a", "r", "b")
	q := MustParsePathQuery("r.r")
	if got := g.Eval(q); len(got) != 0 {
		t.Fatalf("before mutation: %v", got)
	}
	g.AddEdge("b", "r", "c")
	got := g.Eval(q)
	if len(got) != 1 || g.Node(got[0].Src) != "a" || g.Node(got[0].Dst) != "c" {
		t.Fatalf("after mutation: %v", got)
	}
}

// Concurrent queries on a quiescent graph must be safe: the lazy index
// build is mutex-guarded and every call's passes, fanned out over several
// workers, draw their own pooled scratch (run under -race).
func TestConcurrentQueriesShareIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := GenerateGeo(9, 300)
	q := MustParsePathQuery("road*.highway")
	done := make(chan []Pair, 8)
	for w := 0; w < 8; w++ {
		go func() { done <- g.Eval(q) }()
	}
	first := <-done
	for w := 1; w < 8; w++ {
		if got := <-done; !pairsEqual(first, got) {
			t.Fatal("concurrent Eval results differ")
		}
	}
}

// Parallel all-pairs evaluation must be deterministic run to run and agree
// with the naive oracle. GOMAXPROCS is raised so the worker-pool path runs
// even on single-CPU machines.
func TestEvalDeterministicParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := GenerateGeo(5, 150)
	q := MustParsePathQuery("highway.road*")
	first := g.Eval(q)
	if !pairsEqual(first, g.EvalNaive(q)) {
		t.Fatal("parallel Eval disagrees with naive oracle")
	}
	for i := 0; i < 3; i++ {
		if again := g.Eval(q); !pairsEqual(first, again) {
			t.Fatalf("run %d differs: %d vs %d pairs", i, len(first), len(again))
		}
	}
}
