package twiglearn

import (
	"testing"

	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// converge answers the session's first informative node by the goal until
// none is left, and returns the number of questions asked.
func converge(t *testing.T, s *TwigSession, goal twig.Query) int {
	t.Helper()
	for asked := 0; ; asked++ {
		inf := s.Informative()
		if len(inf) == 0 {
			return asked
		}
		it := inf[0]
		if err := s.Record(it, goal.Selects(s.Corpus[it.Doc], it.Node)); err != nil {
			t.Fatalf("Record after %d questions: %v", asked, err)
		}
	}
}

func TestTwigSessionConvergesToGoal(t *testing.T) {
	goal := twig.MustParseQuery("/lib/book[year]/title")
	corpus := []*xmltree.Node{
		xmltree.MustParse(`<lib><book><title/><year/></book><book><title/></book></lib>`),
		xmltree.MustParse(`<lib><book><year/><title/></book><book><title/><isbn/></book></lib>`),
	}
	// Seed: the first title the goal selects.
	seedNode := goal.Eval(corpus[0])[0]
	s, err := NewTwigSession(corpus, 0, seedNode, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asked := converge(t, s, goal)
	// The hypothesis must agree with the goal on the whole corpus.
	h := s.Hypothesis()
	for di, doc := range corpus {
		want := map[*xmltree.Node]bool{}
		for _, n := range goal.Eval(doc) {
			want[n] = true
		}
		for _, n := range h.Eval(doc) {
			if !want[n] {
				t.Errorf("doc %d: hypothesis %s selects extra node %s", di, h, n.Label)
			}
			delete(want, n)
		}
		for n := range want {
			t.Errorf("doc %d: hypothesis %s misses node %s", di, h, n.Label)
		}
	}
	t.Logf("converged with %d questions, hypothesis %s", asked, h)
}

func TestTwigSessionSeedValidation(t *testing.T) {
	doc := xmltree.MustParse(`<a><b/></a>`)
	if _, err := NewTwigSession([]*xmltree.Node{doc}, 5, doc.Children[0], DefaultOptions()); err == nil {
		t.Errorf("out-of-range doc index must error")
	}
	other := xmltree.MustParse(`<a><b/></a>`)
	if _, err := NewTwigSession([]*xmltree.Node{doc}, 0, other.Children[0], DefaultOptions()); err == nil {
		t.Errorf("foreign node must error")
	}
}

func TestTwigSessionTerminates(t *testing.T) {
	// Even with a degenerate goal (select every b), the loop must stop.
	goal := twig.MustParseQuery("//b")
	corpus := []*xmltree.Node{
		xmltree.MustParse(`<a><b/><c><b/></c></a>`),
		xmltree.MustParse(`<a><b/></a>`),
	}
	seed := goal.Eval(corpus[0])[0]
	s, err := NewTwigSession(corpus, 0, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range corpus {
		total += d.Size()
	}
	if asked := converge(t, s, goal); asked > total {
		t.Errorf("asked %d questions for %d nodes", asked, total)
	}
}
