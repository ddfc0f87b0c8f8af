package graphlearn

import (
	"testing"

	"querylearn/internal/graph"
)

// sessionState flattens the observable session state for comparison.
func sessionState(s *Session) (cands []string, informative []graph.Pair, result string) {
	for _, q := range s.Candidates {
		cands = append(cands, q.String())
	}
	return cands, s.InformativePairs(), s.Result().String()
}

// The fused constructor must be state-identical to a session over the same
// universe (the examples interned as probes) followed by Record of each
// example, across goal-labeled example sets that do and do not eliminate
// candidates: its pre-pool pass changes evaluation cost, never state.
func TestNewSessionExamplesEquivalentToReplay(t *testing.T) {
	for seed := int64(1); seed < 15; seed++ {
		g := graph.GenerateGeo(seed, 25+int(seed)%11)
		pool := DefaultPool(g, 4, 200)
		goal := graph.MustParsePathQuery("highway.highway*")
		var seedPair graph.Pair
		found := false
		for _, p := range g.Eval(goal) {
			if p.Src != p.Dst && len(g.ShortestWord(p.Src, p.Dst)) >= 2 {
				seedPair, found = p, true
				break
			}
		}
		if !found {
			continue
		}
		// Label a slice of the pool by the goal: a mix of positives and
		// negatives, which is what eliminates candidates pre-pool.
		var examples []LabeledPair
		probes := make([]graph.Pair, 0, 6)
		for i := 0; i < len(pool) && len(examples) < 6; i += 7 {
			examples = append(examples, LabeledPair{Pair: pool[i], Positive: g.Selects(goal, pool[i].Src, pool[i].Dst)})
			probes = append(probes, pool[i])
		}

		replay := func() (*Session, error) {
			s, err := newSession(g, seedPair, pool, probes, nil, nil)
			if err != nil {
				return nil, err
			}
			for _, e := range examples {
				if err := s.Record(e.Pair, e.Positive); err != nil {
					return nil, err
				}
			}
			return s, nil
		}
		fused, ferr := NewSessionExamples(g, seedPair, pool, examples)
		replayed, rerr := replay()
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("seed %d: fused err %v, replay err %v", seed, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		fc, fi, fr := sessionState(fused)
		rc, ri, rr := sessionState(replayed)
		if len(fc) != len(rc) || fr != rr {
			t.Fatalf("seed %d: survivors/result differ: fused (%d, %q) vs replay (%d, %q)",
				seed, len(fc), fr, len(rc), rr)
		}
		for i := range fc {
			if fc[i] != rc[i] {
				t.Fatalf("seed %d: survivor %d: %q vs %q", seed, i, fc[i], rc[i])
			}
		}
		if len(fi) != len(ri) {
			t.Fatalf("seed %d: informative counts differ: %d vs %d", seed, len(fi), len(ri))
		}
		for i := range fi {
			if fi[i] != ri[i] {
				t.Fatalf("seed %d: informative %d: %v vs %v", seed, i, fi[i], ri[i])
			}
		}
	}
}

// InformativeScan must return a strict prefix of InformativePairs with the
// full count, and exit early on a collapsed version space.
func TestInformativeScanPrefixAndCollapse(t *testing.T) {
	g := graph.GenerateGeo(3, 30)
	pool := DefaultPool(g, 4, 200)
	goal := graph.MustParsePathQuery("highway.highway*")
	var seedPair graph.Pair
	for _, p := range g.Eval(goal) {
		if p.Src != p.Dst && len(g.ShortestWord(p.Src, p.Dst)) >= 2 {
			seedPair = p
			break
		}
	}
	s, err := NewSession(g, seedPair, pool)
	if err != nil {
		t.Fatal(err)
	}
	all := s.InformativePairs()
	for _, lim := range []int{1, 2, len(all), len(all) + 5} {
		got, total := s.InformativeScan(lim)
		if total != len(all) {
			t.Fatalf("limit %d: total %d, want %d", lim, total, len(all))
		}
		wantLen := lim
		if wantLen > len(all) {
			wantLen = len(all)
		}
		if len(got) != wantLen {
			t.Fatalf("limit %d: materialized %d, want %d", lim, len(got), wantLen)
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("limit %d: pair %d is %v, want %v", lim, i, got[i], all[i])
			}
		}
	}
	// Collapse the version space to one candidate; the scan must return
	// nothing without touching the pool.
	oracle := GoalOracle{G: g, Goal: goal}
	for steps := 0; len(s.Candidates) > 1 && steps < 5000; steps++ {
		inf := s.InformativePairs()
		if len(inf) == 0 {
			break
		}
		if err := s.Record(inf[0], oracle.LabelPair(inf[0].Src, inf[0].Dst)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Candidates) < 2 {
		if got, total := s.InformativeScan(0); got != nil || total != 0 {
			t.Fatalf("collapsed scan returned (%v, %d), want (nil, 0)", got, total)
		}
	}
}
