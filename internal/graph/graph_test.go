package graph

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func lineGraph(labels ...string) *Graph {
	g := New()
	for i, l := range labels {
		g.AddEdge(nodeName(i), l, nodeName(i+1))
	}
	return g
}

func nodeName(i int) string { return string(rune('a' + i)) }

func TestAddAndLookup(t *testing.T) {
	g := New()
	g.AddEdge("x", "r", "y")
	g.AddTriple("y", "s", "z")
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.NodeIndex("y") < 0 || g.NodeIndex("nope") != -1 {
		t.Errorf("NodeIndex wrong")
	}
	if got := strings.Join(g.Labels(), ","); got != "r,s" {
		t.Errorf("Labels = %s", got)
	}
	if len(g.Triples()) != 2 {
		t.Errorf("Triples = %v", g.Triples())
	}
}

func TestParsePathQuery(t *testing.T) {
	q := MustParsePathQuery("highway.road*.ferry")
	if len(q.Atoms) != 3 || !q.Atoms[1].Star || q.Atoms[1].Label != "road" {
		t.Errorf("parsed %v", q)
	}
	if q.String() != "highway.road*.ferry" {
		t.Errorf("String = %s", q)
	}
	for _, bad := range []string{"a..b", "*", "a.*"} {
		if _, err := ParsePathQuery(bad); err == nil {
			t.Errorf("ParsePathQuery(%q) should fail", bad)
		}
	}
	eps, err := ParsePathQuery("")
	if err != nil || len(eps.Atoms) != 0 {
		t.Errorf("empty query should parse to epsilon")
	}
}

func TestMatchWord(t *testing.T) {
	q := MustParsePathQuery("a.b*.c")
	cases := []struct {
		word string
		want bool
	}{
		{"a,c", true},
		{"a,b,c", true},
		{"a,b,b,b,c", true},
		{"a,b", false},
		{"c", false},
		{"a,c,c", false},
		{"", false},
	}
	for _, c := range cases {
		var w []string
		if c.word != "" {
			w = strings.Split(c.word, ",")
		}
		if got := q.MatchWord(w); got != c.want {
			t.Errorf("MatchWord(%s, %v) = %v, want %v", q, w, got, c.want)
		}
	}
	if !(PathQuery{}).MatchWord(nil) {
		t.Errorf("epsilon matches empty word")
	}
	star := MustParsePathQuery("a*")
	if !star.MatchWord(nil) || !star.MatchWord([]string{"a", "a"}) || star.MatchWord([]string{"b"}) {
		t.Errorf("a* semantics wrong")
	}
}

func TestEvalFromLine(t *testing.T) {
	g := lineGraph("a", "b", "c")
	q := MustParsePathQuery("a.b")
	got := evalFrom(g, q, g.NodeIndex("a"))
	if len(got) != 1 || g.Node(got[0]) != "c" {
		t.Errorf("Eval from a = %v", got)
	}
}

func TestEvalStarLoop(t *testing.T) {
	// Cycle of b edges: a -b-> b -b-> a ; query b* reaches both from a.
	g := New()
	g.AddEdge("a", "b", "b")
	g.AddEdge("b", "b", "a")
	q := MustParsePathQuery("b*")
	got := evalFrom(g, q, g.NodeIndex("a"))
	if len(got) != 2 {
		t.Errorf("b* from a = %v, want both nodes", got)
	}
}

func TestEvalPairsAndSelects(t *testing.T) {
	g := lineGraph("a", "a", "b")
	q := MustParsePathQuery("a*.b")
	pairs := g.Eval(q)
	// Sources a(0),b(1),c(2) can reach d(3) via a*b; c -b-> d directly.
	if len(pairs) != 3 {
		t.Errorf("pairs = %v", pairs)
	}
	if !g.Selects(q, 0, 3) || g.Selects(q, 0, 2) {
		t.Errorf("Selects wrong")
	}
}

func TestShortestWord(t *testing.T) {
	g := New()
	g.AddEdge("a", "long1", "x")
	g.AddEdge("x", "long2", "b")
	g.AddEdge("a", "short", "b")
	w := g.ShortestWord(g.NodeIndex("a"), g.NodeIndex("b"))
	if len(w) != 1 || w[0] != "short" {
		t.Errorf("ShortestWord = %v", w)
	}
	if g.ShortestWord(g.NodeIndex("b"), g.NodeIndex("a")) != nil {
		t.Errorf("unreachable should be nil")
	}
	if w := g.ShortestWord(0, 0); len(w) != 0 || w == nil {
		t.Errorf("self pair should be empty word, got %v", w)
	}
}

func TestGenerateGeo(t *testing.T) {
	g := GenerateGeo(1, 30)
	if g.NumNodes() != 30 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Errorf("no edges generated")
	}
	labels := g.Labels()
	found := map[string]bool{}
	for _, l := range labels {
		found[l] = true
	}
	if !found["highway"] || !found["road"] {
		t.Errorf("expected highway and road labels, got %v", labels)
	}
	// Determinism.
	if len(GenerateGeo(1, 30).Triples()) != len(g.Triples()) {
		t.Errorf("generation must be deterministic")
	}
}

// naivePairs computes the selected pairs by enumerating every word over the
// alphabet up to maxLen, filtering with MatchWord, and checking path
// existence for each accepted word by a reachability DP — an oracle
// independent of the product construction in Eval.
func naivePairs(g *Graph, q PathQuery, alphabet []string, maxLen int) map[Pair]bool {
	out := map[Pair]bool{}
	var word []string
	var rec func()
	rec = func() {
		if q.MatchWord(word) {
			// reach[n] = nodes reachable from n spelling word.
			for src := 0; src < g.NumNodes(); src++ {
				cur := map[int]bool{src: true}
				for _, l := range word {
					next := map[int]bool{}
					for n := range cur {
						g.Out(n, func(label string, to int) {
							if label == l {
								next[to] = true
							}
						})
					}
					cur = next
				}
				for dst := range cur {
					out[Pair{Src: src, Dst: dst}] = true
				}
			}
		}
		if len(word) >= maxLen {
			return
		}
		for _, l := range alphabet {
			word = append(word, l)
			rec()
			word = word[:len(word)-1]
		}
	}
	rec()
	return out
}

func genGraph(seed int64, n int) *Graph {
	if seed < 0 {
		seed = -seed
	}
	g := New()
	labels := []string{"a", "b"}
	s := seed
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n+2; i++ {
		from := int(s) % n
		s = s/3 + 7
		to := int(s) % n
		s = s/3 + 11
		g.AddEdge(nodeName(from), labels[int(s)%2], nodeName(to))
		s = s/2 + 5
	}
	return g
}

func genQuery(seed int64) PathQuery {
	if seed < 0 {
		seed = -seed
	}
	labels := []string{"a", "b"}
	n := 1 + int(seed%2)
	var q PathQuery
	s := seed
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, Atom{
			Label: labels[int(s)%2],
			Star:  (s/2)%3 == 0,
		})
		s = s/4 + 13
	}
	return q
}

func TestQuickEvalMatchesNaive(t *testing.T) {
	f := func(gs, qs int64) bool {
		g := genGraph(gs, 4)
		q := genQuery(qs)
		// A shortest accepting run visits each (node, NFA state) pair
		// at most once: 4 nodes x (<=3) states = 12 bounds the
		// shortest witness word, so enumerating words up to 12 is
		// exhaustive.
		want := naivePairs(g, q, []string{"a", "b"}, 12)
		got := map[Pair]bool{}
		for _, p := range g.Eval(q) {
			got[p] = true
		}
		if len(got) != len(want) {
			t.Logf("q=%s got=%d want=%d pairs", q, len(got), len(want))
			return false
		}
		for p := range want {
			if !got[p] {
				t.Logf("q=%s missing pair %v", q, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickShortestWordIsAccepted(t *testing.T) {
	// The shortest word really labels a path src->dst.
	f := func(gs int64) bool {
		g := genGraph(gs, 5)
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				w := g.ShortestWord(src, dst)
				if w == nil {
					continue
				}
				// Re-walk the graph guided by w.
				cur := map[int]bool{src: true}
				for _, l := range w {
					next := map[int]bool{}
					for n := range cur {
						g.Out(n, func(label string, to int) {
							if label == l {
								next[to] = true
							}
						})
					}
					cur = next
				}
				if !cur[dst] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortedPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func TestEvalDeterministic(t *testing.T) {
	g := GenerateGeo(3, 20)
	q := MustParsePathQuery("highway.highway*")
	a := sortedPairs(g.Eval(q))
	b := sortedPairs(g.Eval(q))
	if len(a) != len(b) {
		t.Fatalf("nondeterministic eval")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic eval at %d", i)
		}
	}
}
