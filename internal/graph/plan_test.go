package graph

import (
	"math/rand"
	"testing"
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

// Planned EvalPairs (lanes on the side with fewer passes) must equal the
// naive oracle, which fixes no side, on randomized graphs and hub-shaped pair
// sets; TestDifferentialLanesVsNaive forces the lanes onto each side.
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
			naive := g.EvalPairsNaive(q, pairs)
			for i := range pairs {
				if planned[i] != naive[i] {
					t.Fatalf("seed=%d q=%v pair=%v: planned=%v naive=%v",
						seed, q, pairs[i], planned[i], naive[i])
				}
			}
		}
	}
}

func node(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
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
