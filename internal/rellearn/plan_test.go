package rellearn

import (
	"math/rand"
	"slices"
	"testing"
)

// semijoinGreedyAdhoc is the pre-planner greedy loop verbatim (argmax with
// strict improvement, first-wins on ties) — the behaviour the plan.Pick fold
// must preserve exactly.
func semijoinGreedyAdhoc(u *Universe, examples []SemijoinExample) (PairSet, bool) {
	var pos, neg []int
	for _, e := range examples {
		if e.Positive {
			pos = append(pos, e.Left)
		} else {
			neg = append(neg, e.Left)
		}
	}
	cand := u.Full()
	for _, t := range pos {
		var best PairSet
		bestCount := -1
		for j := 0; j < u.Right.Len(); j++ {
			p := cand.Intersect(u.Agree(t, j))
			if c := p.Count(); c > bestCount {
				best, bestCount = p, c
			}
		}
		if best == nil {
			return nil, false
		}
		cand = best
	}
	for _, n := range neg {
		for j := 0; j < u.Right.Len(); j++ {
			if cand.SubsetOf(u.Agree(n, j)) {
				return nil, false
			}
		}
	}
	return cand, true
}

// Regression: folding SemijoinGreedy onto plan.Pick must not change a single
// decision or predicate vs. the old ad-hoc loop, tie cases included (small
// value domains make tied intersection counts common).
func TestSemijoinGreedyMatchesAdhocLoop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		u := randomUniverse(rng, 2+rng.Intn(5), 2+rng.Intn(5), 3+rng.Intn(10), 3+rng.Intn(10), 2)
		var exs []SemijoinExample
		for i := 0; i < u.Left.Len(); i++ {
			exs = append(exs, SemijoinExample{Left: i, Positive: rng.Intn(2) == 0})
		}
		gp, gok := SemijoinGreedy(u, exs)
		ap, aok := semijoinGreedyAdhoc(u, exs)
		if gok != aok || (gok && !gp.Equal(ap)) {
			t.Fatalf("seed %d: folded greedy (%v,%v) != ad-hoc (%v,%v)", seed, gp, gok, ap, aok)
		}
	}
}

// The planned search must agree with the naive search, which keeps the
// static order, on decision across a wide randomized sweep, and its
// predicate must verify against the examples.
func TestSemijoinPlannedVsStaticDecisions(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		u := randomUniverse(rng, 2+rng.Intn(6), 2+rng.Intn(6), 4+rng.Intn(12), 4+rng.Intn(12), 3)
		var exs []SemijoinExample
		for i := 0; i < u.Left.Len(); i++ {
			exs = append(exs, SemijoinExample{Left: i, Positive: rng.Intn(3) > 0})
		}
		pp, pok, _, perr := SemijoinConsistent(u, exs, 1<<22)
		_, sok, _, serr := SemijoinConsistentNaive(u, exs, 1<<22)
		if perr != nil || serr != nil {
			t.Fatalf("seed %d: budget exhausted (planned %v, naive %v)", seed, perr, serr)
		}
		if pok != sok {
			t.Fatalf("seed %d: planned decision %v != naive %v", seed, pok, sok)
		}
		if pok && !semijoinWitnesses(u, exs, pp) {
			t.Fatalf("seed %d: planned predicate %v fails example verification", seed, u.Decode(pp))
		}
	}
}

// All-positives instances collapse immediately: once every remaining family
// is free the planned search must stop without walking the remaining
// positives, so its node count stays below the static order's (which visits
// one node per positive on the success path; the naive search walks the
// static order's tree node for node).
func TestSemijoinPlannedShortCircuitsCollapsedSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := randomUniverse(rng, 2, 2, 24, 6, 2)
	var exs []SemijoinExample
	for i := 0; i < u.Left.Len(); i++ {
		exs = append(exs, SemijoinExample{Left: i, Positive: true})
	}
	_, pok, pstats, _ := SemijoinConsistent(u, exs, 1<<22)
	_, sok, sstats, _ := SemijoinConsistentNaive(u, exs, 1<<22)
	if !pok || !sok {
		t.Fatalf("all-positive instance must be consistent (planned %v, naive %v)", pok, sok)
	}
	if pstats.NodesExplored >= sstats.NodesExplored {
		t.Fatalf("planned search explored %d nodes, static order %d — short-circuit did not fire",
			pstats.NodesExplored, sstats.NodesExplored)
	}
}

// classify's certainly-rejected probe is an any-of subset check, so the
// order orderNegatives gives the negative down-sets must not change a
// verdict: every pair classifies alike with the negatives in maximalSets
// order.
func TestClassifyIgnoresNegativeOrder(t *testing.T) {
	reordered := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		u := randomUniverse(rng, 2+rng.Intn(4), 2+rng.Intn(4), 6+rng.Intn(10), 6+rng.Intn(10), 3)
		s := NewSession(u)
		if err := s.Record(0, 0, true); err != nil {
			t.Fatal(err)
		}
		var negs []PairSet
		for li := 0; li < u.Left.Len(); li++ {
			for ri := 0; ri < u.Right.Len(); ri++ {
				if pn := u.Agree(li, ri).Intersect(s.Pmax); !pn.Equal(s.Pmax) && rng.Intn(3) == 0 {
					negs = append(negs, pn)
				}
			}
		}
		raw := maximalSets(negs)
		ordered := orderNegatives(raw)
		if !slices.EqualFunc(raw, ordered, PairSet.Equal) {
			reordered++
		}
		for li := 0; li < u.Left.Len(); li++ {
			for ri := 0; ri < u.Right.Len(); ri++ {
				s.negatives = raw
				want := s.classify(li, ri)
				s.negatives = ordered
				if got := s.classify(li, ri); got != want {
					t.Fatalf("seed %d pair (%d,%d): classify %d with ordered negatives, %d in maximalSets order",
						seed, li, ri, got, want)
				}
			}
		}
	}
	if reordered == 0 {
		t.Fatal("orderNegatives never reordered the negatives")
	}
}
