package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"querylearn/internal/graph"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
)

// FuzzPlanEquivalence drives randomized instances through the planned
// evaluation paths and their naive oracles and requires identical observable
// results: the planner may reorder work, never change answers. The graph arm
// compares EvalPairs verdicts (lanes on the side with fewer passes) with the
// PR 1 naive oracle; the semijoin arm compares the consistency decision
// planned vs naive and property-checks any returned predicate against the
// examples (the planned search may return a different — but equally
// consistent — witness predicate).
func FuzzPlanEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(7), int64(42), uint8(3), uint8(6), uint16(0x2d), int64(9))
	f.Add(int64(3), uint8(40), uint8(130), int64(7), uint8(5), uint8(10), uint16(0xffff), int64(5))
	f.Add(int64(11), uint8(5), uint8(64), int64(-3), uint8(7), uint8(3), uint16(0), int64(77))
	f.Fuzz(func(t *testing.T, seed int64, n, qs uint8, pairSeed int64, k, rows uint8, labelBits uint16, relSeed int64) {
		fuzzGraphArm(t, seed, n, qs, pairSeed)
		fuzzSemijoinArm(t, k, rows, labelBits, relSeed)
	})
}

// lcg is a deterministic value stream for deriving instances from fuzz ints.
func lcg(x int64) func(mod int) int {
	u := uint64(x)
	return func(mod int) int {
		u = u*6364136223846793005 + 1442695040888963407
		return int((u >> 33) % uint64(mod))
	}
}

func fuzzGraphArm(t *testing.T, seed int64, n, qs uint8, pairSeed int64) {
	// Up to 384 nodes and 400 pairs, so pools span several 64-lane passes.
	nodes := 2 + int(n)*3/2
	g := graph.GenerateGeo(seed, nodes)

	labels := []string{"highway", "road", "ferry", "train"}
	nAtoms := 1 + int(qs)%3
	spec := int(qs) / 3
	var atoms []string
	for i := 0; i < nAtoms; i++ {
		a := labels[spec%len(labels)]
		spec /= len(labels)
		if spec%2 == 1 {
			a += "*"
		}
		spec /= 2
		atoms = append(atoms, a)
	}
	q, err := graph.ParsePathQuery(strings.Join(atoms, "."))
	if err != nil {
		t.Fatalf("constructed query does not parse: %v", err)
	}

	next := lcg(pairSeed)
	pairs := make([]graph.Pair, 1+next(400))
	for i := range pairs {
		pairs[i] = graph.Pair{Src: next(nodes), Dst: next(nodes)}
	}

	planned := g.EvalPairs(q, pairs)
	naive := g.EvalPairsNaive(q, pairs)
	for i := range pairs {
		if planned[i] != naive[i] {
			t.Fatalf("verdict %d (%v, query %s): planned=%v naive=%v",
				i, pairs[i], q, planned[i], naive[i])
		}
	}
}

func fuzzSemijoinArm(t *testing.T, k, rows uint8, labelBits uint16, relSeed int64) {
	kAttrs := 2 + int(k)%6
	nRows := 2 + int(rows)%10
	next := lcg(relSeed)
	lAttrs := make([]string, kAttrs)
	rAttrs := make([]string, kAttrs)
	for i := range lAttrs {
		lAttrs[i] = fmt.Sprintf("a%d", i)
		rAttrs[i] = fmt.Sprintf("b%d", i)
	}
	l := relational.MustNew("L", lAttrs...)
	r := relational.MustNew("R", rAttrs...)
	for i := 0; i < nRows; i++ {
		lrow := make([]string, kAttrs)
		rrow := make([]string, kAttrs)
		for j := range lrow {
			lrow[j] = fmt.Sprint(next(3))
			rrow[j] = fmt.Sprint(next(3))
		}
		if l.Insert(lrow...) != nil || r.Insert(rrow...) != nil {
			return
		}
	}
	u := rellearn.NewUniverse(l, r)
	exs := make([]rellearn.SemijoinExample, nRows)
	for i := range exs {
		exs[i] = rellearn.SemijoinExample{Left: i, Positive: labelBits&(1<<(i%16)) != 0}
	}

	const budget = 1 << 14
	pPred, pOK, _, pErr := rellearn.SemijoinConsistent(u, exs, budget)
	nPred, nOK, _, nErr := rellearn.SemijoinConsistentNaive(u, exs, budget)
	if pErr != nil || nErr != nil {
		return // a budget blowup in one arm says nothing about equivalence
	}
	if pOK != nOK {
		t.Fatalf("consistency decision differs: planned=%v naive=%v", pOK, nOK)
	}
	if !pOK {
		return
	}
	for who, pred := range map[string]rellearn.PairSet{"planned": pPred, "naive": nPred} {
		checkSemijoinConsistent(t, who, u, exs, pred)
	}
}

// checkSemijoinConsistent verifies the semijoin consistency property: every
// positive left tuple has a right witness agreeing on the predicate, no
// negative one does.
func checkSemijoinConsistent(t *testing.T, who string, u *rellearn.Universe, exs []rellearn.SemijoinExample, pred rellearn.PairSet) {
	t.Helper()
	for _, e := range exs {
		witness := false
		for j := 0; j < u.Right.Len() && !witness; j++ {
			witness = pred.SubsetOf(u.Agree(e.Left, j))
		}
		if witness != e.Positive {
			t.Fatalf("%s predicate inconsistent: left %d positive=%v witness=%v",
				who, e.Left, e.Positive, witness)
		}
	}
}
