package graphlearn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"querylearn/internal/graph"
)

func words(ss ...string) [][]string {
	var out [][]string
	for _, s := range ss {
		if s == "" {
			out = append(out, []string{})
			continue
		}
		out = append(out, strings.Split(s, ","))
	}
	return out
}

func TestGeneralizeWordsIdentical(t *testing.T) {
	q, err := GeneralizeWords(words("a,b", "a,b"))
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "a.b" {
		t.Errorf("q = %s, want a.b", q)
	}
}

func TestGeneralizeWordsRepeats(t *testing.T) {
	q, err := GeneralizeWords(words("a,a,a,b", "a,b"))
	if err != nil {
		t.Fatal(err)
	}
	// Most specific: a.a*.b (at least one a, then b).
	if q.String() != "a.a*.b" {
		t.Errorf("q = %s, want a.a*.b", q)
	}
	for _, w := range words("a,b", "a,a,a,b", "a,a,b") {
		if !q.MatchWord(w) {
			t.Errorf("%s should match %v", q, w)
		}
	}
	if q.MatchWord(words("b")[0]) {
		t.Errorf("%s should not match b", q)
	}
}

func TestGeneralizeWordsInsertion(t *testing.T) {
	// a,c vs a,b,c: the b run is unmatched -> b*.
	q, err := GeneralizeWords(words("a,c", "a,b,c"))
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "a.b*.c" {
		t.Errorf("q = %s, want a.b*.c", q)
	}
}

func TestGeneralizeWordsAcceptsInputs(t *testing.T) {
	// Whatever the alignment, the result must accept every input word.
	cases := [][][]string{
		words("a,b,a", "b,a,b"),
		words("a,a", "b,b"),
		words("highway,road", "road"),
		words("a", "a,b,c,a"),
		words("", "a"),
	}
	for _, ws := range cases {
		q, err := GeneralizeWords(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if !q.MatchWord(w) {
				t.Errorf("generalization %s of %v rejects %v", q, ws, w)
			}
		}
	}
}

func TestLearnOnGeoGraph(t *testing.T) {
	g := graph.GenerateGeo(5, 25)
	goal := graph.MustParsePathQuery("highway.highway*")
	pairs := g.Eval(goal)
	if len(pairs) < 2 {
		t.Skip("geo graph too sparse for this seed")
	}
	exs := []Example{
		{Src: pairs[0].Src, Dst: pairs[0].Dst, Positive: true},
		{Src: pairs[1].Src, Dst: pairs[1].Dst, Positive: true},
	}
	q, err := Learn(g, exs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exs {
		if !g.Selects(q, e.Src, e.Dst) {
			t.Errorf("learned %s misses positive (%d,%d)", q, e.Src, e.Dst)
		}
	}
}

func TestLearnUnreachablePositive(t *testing.T) {
	g := graph.New()
	g.AddNode("x")
	g.AddNode("y")
	if _, err := Learn(g, []Example{{Src: 0, Dst: 1, Positive: true}}); err == nil {
		t.Errorf("unreachable positive must error")
	}
}

func TestLearnInconsistentNegative(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "r", "b")
	exs := []Example{
		{Src: 0, Dst: 1, Positive: true},
		{Src: 0, Dst: 1, Positive: false},
	}
	if _, err := Learn(g, exs); err == nil {
		t.Errorf("contradictory labels must error")
	}
}

func TestCandidatesFromWord(t *testing.T) {
	cands := CandidatesFromWord([]string{"a", "a", "b"})
	// Must contain the exact word, the starred generalizations, and the
	// goal-shaped a.a*.b.
	want := map[string]bool{"a.a.b": false, "a.a*.b": false, "a*.b*": false}
	for _, q := range cands {
		if _, ok := want[q.String()]; ok {
			want[q.String()] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("candidate %s missing from %d candidates", k, len(cands))
		}
	}
	// All candidates accept the seed word.
	for _, q := range cands {
		if !q.MatchWord([]string{"a", "a", "b"}) {
			t.Errorf("candidate %s rejects the seed word", q)
		}
	}
}

func TestInteractiveIdentifiesGoal(t *testing.T) {
	g := graph.GenerateGeo(11, 30)
	goal := graph.MustParsePathQuery("highway.highway*")
	goalPairs := g.Eval(goal)
	if len(goalPairs) == 0 {
		t.Skip("no highway pairs for this seed")
	}
	// Seed: a pair whose shortest word is pure highways, so the goal is
	// in the candidate space.
	var seed graph.Pair
	found := false
	for _, p := range goalPairs {
		w := g.ShortestWord(p.Src, p.Dst)
		pure := len(w) >= 2
		for _, l := range w {
			if l != "highway" {
				pure = false
			}
		}
		if pure {
			seed, found = p, true
			break
		}
	}
	if !found {
		t.Skip("no multi-hop pure-highway seed for this graph")
	}
	pool := DefaultPool(g, 4, 500)
	for _, order := range []struct {
		name string
		pick func(int) int
	}{{"first", nil}, {"random", rand.New(rand.NewSource(3)).Intn}} {
		s, err := NewSession(g, seed, pool)
		if err != nil {
			t.Fatalf("%s: %v", order.name, err)
		}
		converge(t, s, goal, order.pick)
		// The learned query must agree with the goal on the pool.
		learned := s.Result()
		for _, p := range pool {
			if g.Selects(learned, p.Src, p.Dst) != g.Selects(goal, p.Src, p.Dst) {
				t.Errorf("%s: learned %s disagrees with goal %s on %v", order.name, learned, goal, p)
				break
			}
		}
	}
}

func TestQuickGeneralizationAcceptsInputs(t *testing.T) {
	labels := []string{"a", "b"}
	genWord := func(seed int64) []string {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed % 5)
		w := make([]string, n)
		s := seed
		for i := range w {
			w[i] = labels[int(s)%2]
			s = s/2 + 3
		}
		return w
	}
	f := func(s1, s2 int64) bool {
		w1, w2 := genWord(s1), genWord(s2)
		q, err := GeneralizeWords([][]string{w1, w2})
		if err != nil {
			return false
		}
		if !q.MatchWord(w1) || !q.MatchWord(w2) {
			t.Logf("q=%s w1=%v w2=%v", q, w1, w2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickSessionNeverExceedsPool(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		g := graph.GenerateGeo(seed%17+1, 15)
		goal := graph.MustParsePathQuery("road.road*")
		pairs := g.Eval(goal)
		if len(pairs) == 0 {
			return true
		}
		seedPair := pairs[int(seed)%len(pairs)]
		w := g.ShortestWord(seedPair.Src, seedPair.Dst)
		for _, l := range w {
			if l != "road" {
				return true // goal outside candidate space; skip
			}
		}
		s, err := NewSession(g, seedPair, DefaultPool(g, 3, 200))
		if err != nil {
			return true // candidate-space misses are acceptable here
		}
		converge(t, s, goal, nil) // fails the test on a question beyond the pool
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
