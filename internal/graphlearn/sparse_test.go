package graphlearn

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// converge answers the session's informative pool pairs by the goal until
// none is left, asking the pair pick chooses among them (nil asks the
// first), and returns the pairs asked. It fails the test if the session
// would ask more questions than its pool has pairs.
func converge(t *testing.T, s *Session, goal graph.PathQuery, pick func(n int) int) []graph.Pair {
	t.Helper()
	var asked []graph.Pair
	for {
		inf, _ := s.InformativeScan(0)
		if len(inf) == 0 {
			return asked
		}
		if len(asked) >= len(s.Pool) {
			t.Fatalf("still asking after %d questions over a %d-pair pool", len(asked), len(s.Pool))
		}
		p := inf[0]
		if pick != nil {
			p = inf[pick(len(inf))]
		}
		asked = append(asked, p)
		if err := s.Record(p, s.G.Selects(goal, p.Src, p.Dst)); err != nil {
			t.Fatalf("Record(%v): %v", p, err)
		}
	}
}

// driveTranscript runs a session to convergence in first-informative order,
// returning the asked pairs, the final survivors, and the result.
func driveTranscript(t *testing.T, s *Session, goal graph.PathQuery) (asked []graph.Pair, survivors []string, result string) {
	t.Helper()
	asked = converge(t, s, goal, nil)
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
			sa, ss, sr := driveTranscript(t, sparse, goal)
			da, ds, dr := driveTranscript(t, dense, goal)
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
			ans := g.Selects(goal, p.Src, p.Dst)
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
	_, ss, sr := driveTranscript(t, sparse, goal)
	_, ds, dr := driveTranscript(t, dense, goal)
	if fmt.Sprint(ss) != fmt.Sprint(ds) || sr != dr {
		t.Fatalf("after universe growth: survivors %v vs %v, result %s vs %s", ss, ds, sr, dr)
	}
}

// A session build drains planning time only. The pre-pass over the
// examples evaluates through the same recorder that EvalPairsMany plans
// into, so timing the pre-pass as planning would count evaluation as plan
// time (and the evaluation's own planning twice). A membership call that
// sleeps before evaluating must leave no more than the real planning on the
// recorder.
func TestBuildPlanTimeExcludesEvaluation(t *testing.T) {
	g := graph.GenerateGeo(3, 30)
	goal := graph.MustParsePathQuery("highway.highway*")
	var seedPair graph.Pair
	for _, p := range g.Eval(goal) {
		if p.Src != p.Dst && len(g.ShortestWord(p.Src, p.Dst)) >= 2 {
			seedPair = p
			break
		}
	}
	const pause = 20 * time.Millisecond
	slow := func(g *graph.Graph, qs []graph.PathQuery, pairs []graph.Pair) [][]bool {
		time.Sleep(pause)
		return g.EvalPairsMany(qs, pairs, nil)
	}
	// The seed as its own example runs the pre-pass without eliminating.
	examples := []LabeledPair{{Pair: seedPair, Positive: true}}
	s, err := newSession(g, seedPair, DefaultPool(g, 4, 100), nil, examples, slow)
	if err != nil {
		t.Fatal(err)
	}
	if d, _, _ := s.PlanRecorder().Drain(); d >= pause {
		t.Fatalf("build drained %v of plan time, at least the %v its evaluation slept", d, pause)
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

// Random-order dialogues over the sparse engine must stay inside the pool
// budget (the quick test's check at a larger scale).
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
	s, err := NewSession(g, seedPair, DefaultPool(g, 4, 400))
	if err != nil {
		t.Fatal(err)
	}
	converge(t, s, goal, rand.New(rand.NewSource(8)).Intn)
}
