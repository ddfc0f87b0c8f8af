package graphlearn

import (
	"fmt"
	"math/rand"
	"testing"

	"querylearn/internal/graph"
)

// denseMembership is the all-pairs differential oracle for the sparse
// engine: each candidate's membership computed by the full Eval and
// projected onto the interned universe. Sessions built with it and with
// newSession's default shared EvalPairsMany call must be indistinguishable.
func denseMembership(g *graph.Graph, qs []graph.PathQuery, pairs []graph.Pair) [][]bool {
	out := make([][]bool, len(qs))
	for i, q := range qs {
		sel := map[graph.Pair]bool{}
		for _, p := range g.Eval(q) {
			sel[p] = true
		}
		out[i] = make([]bool, len(pairs))
		for j, p := range pairs {
			out[i][j] = sel[p]
		}
	}
	return out
}

// driveTranscript runs a session to convergence with a deterministic
// strategy, returning the asked pairs, the final survivors, and the result.
func driveTranscript(t *testing.T, s *Session, oracle Oracle, strat Strategy) (asked []graph.Pair, survivors []string, result string) {
	t.Helper()
	for steps := 0; ; steps++ {
		if steps > 5000 {
			t.Fatal("session did not converge in 5000 questions")
		}
		inf := s.InformativePairs()
		if len(inf) == 0 {
			break
		}
		p := inf[strat.Pick(s, inf)]
		asked = append(asked, p)
		if err := s.Record(p, oracle.LabelPair(p.Src, p.Dst)); err != nil {
			t.Fatalf("Record(%v): %v", p, err)
		}
	}
	for _, q := range s.Candidates {
		survivors = append(survivors, q.String())
	}
	return asked, survivors, s.Result().String()
}

// TestDifferentialSparseVsDenseSession pins the tentpole's equivalence: on
// graphs small enough for the dense all-pairs oracle, the sparse
// pool-projected session must ask the same questions, keep the same
// survivors, and learn the same result.
func TestDifferentialSparseVsDenseSession(t *testing.T) {
	goals := []graph.PathQuery{
		graph.MustParsePathQuery("highway.highway*"),
		graph.MustParsePathQuery("road.road*"),
		graph.MustParsePathQuery("highway.road*"),
	}
	checked := 0
	for seed := int64(1); seed < 25; seed++ {
		g := graph.GenerateGeo(seed, 20+int(seed)%17)
		pool := DefaultPool(g, 4, 300)
		for _, goal := range goals {
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
			sparse, err := newSession(g, seedPair, pool, nil, nil, nil)
			if err != nil {
				continue // seed's word may put the goal outside the class
			}
			dense, err := newSession(g, seedPair, pool, nil, nil, denseMembership)
			if err != nil {
				t.Fatalf("dense session errored where sparse did not: %v", err)
			}
			oracle := GoalOracle{G: g, Goal: goal}
			sa, ss, sr := driveTranscript(t, sparse, oracle, SplitStrategy{})
			da, ds, dr := driveTranscript(t, dense, oracle, SplitStrategy{})
			if fmt.Sprint(sa) != fmt.Sprint(da) {
				t.Fatalf("seed %d goal %s: question sequences differ\nsparse %v\ndense  %v", seed, goal, sa, da)
			}
			if fmt.Sprint(ss) != fmt.Sprint(ds) {
				t.Fatalf("seed %d goal %s: survivors differ: %v vs %v", seed, goal, ss, ds)
			}
			if sr != dr {
				t.Fatalf("seed %d goal %s: results differ: %s vs %s", seed, goal, sr, dr)
			}
			checked++
		}
	}
	if checked < 5 {
		t.Fatalf("only %d seed/goal combinations were checkable; the differential needs more coverage", checked)
	}
}

// Out-of-pool answers grow the interned universe; sparse and dense sessions
// must stay equivalent through that growth path too.
func TestSparseSessionUniverseGrowth(t *testing.T) {
	g := graph.GenerateGeo(7, 40)
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
		t.Skip("no usable seed for this generator seed")
	}
	// A deliberately tiny pool so most of the graph is outside the universe.
	pool := DefaultPool(g, 2, 10)
	sparse, err := newSession(g, seedPair, pool, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := newSession(g, seedPair, pool, nil, nil, denseMembership)
	if err != nil {
		t.Fatal(err)
	}
	oracle := GoalOracle{G: g, Goal: goal}
	n := g.NumNodes()
	recorded := 0
	for src := 0; src < n && recorded < 8; src++ {
		for dst := 0; dst < n && recorded < 8; dst++ {
			p := graph.Pair{Src: src, Dst: dst}
			if _, inPool := sparse.slots[p]; inPool || !sparse.Informative(p) {
				continue
			}
			if sparse.Informative(p) != dense.Informative(p) {
				t.Fatalf("Informative(%v) disagrees before recording", p)
			}
			ans := oracle.LabelPair(p.Src, p.Dst)
			if err := sparse.Record(p, ans); err != nil {
				t.Fatalf("sparse Record(%v): %v", p, err)
			}
			if err := dense.Record(p, ans); err != nil {
				t.Fatalf("dense Record(%v): %v", p, err)
			}
			recorded++
		}
	}
	if recorded == 0 {
		t.Skip("no informative out-of-pool pair for this seed")
	}
	_, ss, sr := driveTranscript(t, sparse, oracle, SplitStrategy{})
	_, ds, dr := driveTranscript(t, dense, oracle, SplitStrategy{})
	if fmt.Sprint(ss) != fmt.Sprint(ds) || sr != dr {
		t.Fatalf("after universe growth: survivors %v vs %v, result %s vs %s", ss, ds, sr, dr)
	}
}

// A rejected (inconsistent) answer must not mark the pair labeled or mutate
// the version space — the regression behind Session.Record's old
// mark-before-apply ordering.
func TestRecordRejectedAnswerDoesNotPoison(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "r", "b")
	g.AddEdge("b", "s", "c")
	sess, err := NewSession(g, graph.Pair{Src: 0, Dst: 1}, DefaultPool(g, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate generalizes the witness word "r", so none selects
	// (a, c) (its word is r.s): all candidates agree the pair is negative.
	bad := graph.Pair{Src: 0, Dst: 2}
	before := len(sess.Candidates)
	if err := sess.Record(bad, true); err == nil {
		t.Fatal("recording a positive no candidate satisfies must error")
	}
	if len(sess.Candidates) != before {
		t.Fatalf("rejected answer shrank the version space: %d -> %d", before, len(sess.Candidates))
	}
	id, ok := sess.slots[bad]
	if !ok {
		t.Fatal("pair should have been interned by the attempted record")
	}
	if sess.labeled.Has(id) {
		t.Fatal("rejected answer marked the pair labeled (the poison bug)")
	}
	// The consistent answer for the same pair must still apply cleanly.
	if err := sess.Record(bad, false); err != nil {
		t.Fatalf("consistent retry after rejection failed: %v", err)
	}
	if !sess.labeled.Has(id) {
		t.Fatal("accepted answer did not mark the pair labeled")
	}
}

// DefaultPool must interleave sources when the limit truncates, instead of
// exhausting the lowest-index sources first.
func TestDefaultPoolInterleavesSources(t *testing.T) {
	g := graph.New()
	// 100 sources, each with 5 private targets: the old implementation
	// filled a 100-pair budget from the first 20 sources only.
	for s := 0; s < 100; s++ {
		for e := 0; e < 5; e++ {
			g.AddEdge(fmt.Sprintf("s%d", s), "r", fmt.Sprintf("t%d_%d", s, e))
		}
	}
	pool := DefaultPool(g, 1, 100)
	if len(pool) != 100 {
		t.Fatalf("pool size = %d, want 100", len(pool))
	}
	sources := map[int]bool{}
	for _, p := range pool {
		sources[p.Src] = true
	}
	if len(sources) != 100 {
		t.Fatalf("truncated pool covers %d distinct sources, want 100 (round-robin)", len(sources))
	}
	// Determinism: identical on every call.
	again := DefaultPool(g, 1, 100)
	if fmt.Sprint(pool) != fmt.Sprint(again) {
		t.Fatal("DefaultPool is not deterministic")
	}
}

// Without a limit, the round-robin pool must contain exactly the pairs of
// the specification: every connected (src, dst≠src) within maxLen hops.
func TestDefaultPoolUncappedSetUnchanged(t *testing.T) {
	g := graph.GenerateGeo(3, 40)
	maxLen := 3
	pool := DefaultPool(g, maxLen, 0)
	got := map[graph.Pair]bool{}
	for _, p := range pool {
		if got[p] {
			t.Fatalf("duplicate pair %v in pool", p)
		}
		got[p] = true
	}
	want := map[graph.Pair]bool{}
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s == d {
				continue
			}
			if w := g.ShortestWord(s, d); w != nil && len(w) <= maxLen {
				want[graph.Pair{Src: s, Dst: d}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pool has %d pairs, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("pool misses pair %v", p)
		}
	}
}

// The PriorStrategy's pool-projected workload cache must rebuild per session
// and produce stable picks.
func TestPriorStrategyCachePerSession(t *testing.T) {
	g := graph.GenerateGeo(11, 30)
	goal := graph.MustParsePathQuery("highway.highway*")
	var seedPair graph.Pair
	found := false
	for _, p := range g.Eval(goal) {
		w := g.ShortestWord(p.Src, p.Dst)
		if len(w) >= 2 {
			pure := true
			for _, l := range w {
				if l != "highway" {
					pure = false
				}
			}
			if pure {
				seedPair, found = p, true
				break
			}
		}
	}
	if !found {
		t.Skip("no suitable seed")
	}
	prior := &PriorStrategy{G: g, Workload: []graph.PathQuery{goal}, Fallback: SplitStrategy{}}
	oracle := GoalOracle{G: g, Goal: goal}
	// Two back-to-back runs share the strategy value; the cache must key on
	// the session, not survive across sessions with stale universes.
	first, err := Run(g, seedPair, DefaultPool(g, 4, 500), oracle, prior)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(g, seedPair, DefaultPool(g, 3, 50), oracle, prior)
	if err != nil {
		t.Fatal(err)
	}
	if first.Questions == 0 && second.Questions == 0 {
		t.Skip("degenerate dialogues")
	}
	for _, p := range DefaultPool(g, 3, 50) {
		if g.Selects(second.Learned, p.Src, p.Dst) != g.Selects(goal, p.Src, p.Dst) {
			t.Fatalf("second session's result disagrees with goal on its pool pair %v", p)
		}
	}
}

// Random-strategy runs over the sparse engine must stay inside the pool
// budget (ported sanity check at a larger scale than the quick test).
func TestSparseSessionRandomRuns(t *testing.T) {
	g := graph.GenerateGeo(21, 60)
	goal := graph.MustParsePathQuery("road.road*")
	var seedPair graph.Pair
	found := false
	for _, p := range g.Eval(goal) {
		w := g.ShortestWord(p.Src, p.Dst)
		if p.Src == p.Dst || len(w) < 2 {
			continue
		}
		pure := true
		for _, l := range w {
			if l != "road" {
				pure = false
			}
		}
		if pure {
			seedPair, found = p, true
			break
		}
	}
	if !found {
		t.Skip("no pure-road seed")
	}
	pool := DefaultPool(g, 4, 400)
	stats, err := Run(g, seedPair, pool, GoalOracle{G: g, Goal: goal}, RandomStrategy{Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Questions > len(pool) {
		t.Fatalf("asked %d questions over a %d-pair pool", stats.Questions, len(pool))
	}
}
