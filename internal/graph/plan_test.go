package graph

import (
	"math/rand"
	"testing"

	"querylearn/internal/plan"
)

// Backward single-pair product BFS must agree with forward on every
// (src, dst): Selects' planned direction choice is only sound if both
// directions compute the same relation.
func TestDifferentialBackwardVsForward(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(4*n), labels)
		for qi := 0; qi < 6; qi++ {
			q := randomQuery(rng, labels)
			fwd := newPairEvaluator(g, q)
			bwd := newPairEvaluator(g, q)
			for src := 0; src < n; src++ {
				fwd.run(src)
				for dst := 0; dst < n; dst++ {
					bwd.runBack(dst)
					if fwd.selects(dst) != bwd.coselects(src) {
						t.Fatalf("seed=%d q=%v (%d,%d): forward=%v backward=%v",
							seed, q, src, dst, fwd.selects(dst), bwd.coselects(src))
					}
				}
			}
		}
	}
}

// hubPairs builds the shape backward planning exists for: every node probing
// one destination, plus some random pairs.
func hubPairs(rng *rand.Rand, n, hub int) []Pair {
	var ps []Pair
	for s := 0; s < n; s++ {
		ps = append(ps, Pair{Src: s, Dst: hub})
	}
	for i := 0; i < n/2; i++ {
		ps = append(ps, Pair{Src: rng.Intn(n), Dst: rng.Intn(n)})
	}
	return ps
}

// Planned EvalPairs (lanes on the side with fewer passes) must equal both
// the plan-disabled forward lanes and the naive oracle on randomized graphs
// and hub-shaped pair sets.
func TestDifferentialEvalPairsPlannedVsUnplanned(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(5*n), labels)
		pairs := hubPairs(rng, n, rng.Intn(n))
		for qi := 0; qi < 5; qi++ {
			q := randomQuery(rng, labels)
			planned := g.EvalPairs(q, pairs)
			prevDisabled := plan.SetDisabled(true)
			unplanned := g.EvalPairs(q, pairs)
			plan.SetDisabled(prevDisabled)
			naive := g.EvalPairsNaive(q, pairs)
			for i := range pairs {
				if planned[i] != naive[i] || unplanned[i] != naive[i] {
					t.Fatalf("seed=%d q=%v pair=%v: planned=%v unplanned=%v naive=%v",
						seed, q, pairs[i], planned[i], unplanned[i], naive[i])
				}
			}
		}
	}
}

func node(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// EvalStream must deliver exactly Eval's pairs in Eval's order, and a false
// sink return must stop the stream after the emitted prefix.
func TestEvalStreamOrderAndEarlyStop(t *testing.T) {
	labels := []string{"a", "b"}
	for _, n := range []int{10, 120} { // under and over the parallel threshold
		rng := rand.New(rand.NewSource(int64(n)))
		g := randomGraph(rng, n, 6*n, labels)
		q := PathQuery{Atoms: []Atom{{Label: "a", Star: true}, {Label: "b"}}}
		want := g.Eval(q)
		var got []Pair
		g.EvalStream(q, plan.Collect(&got))
		if !pairsEqual(got, want) {
			t.Fatalf("n=%d: EvalStream emitted %d pairs != Eval's %d, or out of order", n, len(got), len(want))
		}
		if len(want) < 3 {
			continue
		}
		stopAt := len(want) / 2
		var prefix []Pair
		g.EvalStream(q, func(p Pair) bool {
			prefix = append(prefix, p)
			return len(prefix) < stopAt
		})
		if !pairsEqual(prefix, want[:stopAt]) {
			t.Fatalf("n=%d: early-stopped stream emitted %v, want prefix %v", n, prefix, want[:stopAt])
		}
	}
}

// SelectsManyStream's per-query direction choice must agree with the
// materializing SelectsMany and with per-query Selects, and Disagree must
// equal the any-two-differ predicate over SelectsMany.
func TestDisagreeMatchesSelectsMany(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 20, 70, labels)
	for trial := 0; trial < 40; trial++ {
		var qs []PathQuery
		for i := 0; i < 1+rng.Intn(4); i++ {
			qs = append(qs, randomQuery(rng, labels))
		}
		src, dst := rng.Intn(20), rng.Intn(20)
		verdicts := g.SelectsMany(qs, src, dst)
		want := false
		for i, v := range verdicts {
			if g.Selects(qs[i], src, dst) != v {
				t.Fatalf("SelectsMany[%d] != Selects for q=%v (%d,%d)", i, qs[i], src, dst)
			}
			if v != verdicts[0] {
				want = true
			}
		}
		if got := g.Disagree(qs, src, dst); got != want {
			t.Fatalf("Disagree=%v want %v for qs=%v (%d,%d) verdicts=%v", got, want, qs, src, dst, verdicts)
		}
	}
}
