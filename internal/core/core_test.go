package core

import (
	"strings"
	"testing"

	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/twig"
	"querylearn/internal/twiglearn"
	"querylearn/internal/xmltree"
)

func TestLearnXMLQueryFacade(t *testing.T) {
	goal := twig.MustParseQuery("/lib/book[year]/title")
	docs := []*xmltree.Node{
		xmltree.MustParse(`<lib><book><title/><year/></book><book><title/></book></lib>`),
		xmltree.MustParse(`<lib><book><year/><title/></book></lib>`),
	}
	exs := twiglearn.ExamplesFromQuery(goal, docs)
	q, err := LearnXMLQuery(exs, XMLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !twig.Equivalent(q, goal) {
		t.Errorf("learned %s, want %s", q, goal)
	}
	pathQ, err := LearnXMLQuery(exs, XMLOptions{PathOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if pathQ.String() != "/lib/book/title" {
		t.Errorf("path-only learned %s", pathQ)
	}
}

func TestLearnJoinQueryFacade(t *testing.T) {
	l, _ := relational.FromRows("L", []string{"id"}, [][]string{{"1"}, {"2"}})
	r, _ := relational.FromRows("R", []string{"fk"}, [][]string{{"1"}, {"3"}})
	exs := []rellearn.JoinExample{
		{Left: 0, Right: 0, Positive: true},
		{Left: 1, Right: 1, Positive: false},
	}
	pred, err := LearnJoinQuery(l, r, exs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 1 || (pred[0] != relational.AttrPair{Left: "id", Right: "fk"}) {
		t.Errorf("pred = %v", pred)
	}
	// Inconsistent case.
	bad := []rellearn.JoinExample{
		{Left: 0, Right: 0, Positive: true},
		{Left: 0, Right: 0, Positive: false},
	}
	if _, err := LearnJoinQuery(l, r, bad); err == nil {
		t.Errorf("inconsistent examples must error")
	}
}

func TestLearnSemijoinQueryFacade(t *testing.T) {
	l, _ := relational.FromRows("L", []string{"a"}, [][]string{{"1"}, {"9"}})
	r, _ := relational.FromRows("R", []string{"b"}, [][]string{{"1"}})
	exs := []rellearn.SemijoinExample{
		{Left: 0, Positive: true},
		{Left: 1, Positive: false},
	}
	pred, err := LearnSemijoinQuery(l, r, exs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 1 {
		t.Errorf("pred = %v", pred)
	}
}

func TestLearnPathQueryFacade(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "r", "b")
	g.AddEdge("b", "r", "c")
	exs := []graphlearn.Example{
		{Src: 0, Dst: 2, Positive: true},
	}
	q, err := LearnPathQuery(g, exs)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "r.r" {
		t.Errorf("learned %s", q)
	}
}

func TestLearnSchemaFacade(t *testing.T) {
	docs := []*xmltree.Node{
		xmltree.MustParse(`<r><a/></r>`),
		xmltree.MustParse(`<r><a/><a/></r>`),
	}
	s, err := LearnSchema(docs)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(xmltree.MustParse(`<r><a/><a/><a/></r>`)) {
		t.Errorf("a+ should accept three a's: %s", s)
	}
}

func TestResolveNodePath(t *testing.T) {
	doc := xmltree.MustParse(`<a><b/><c><d/></c></a>`)
	n, err := ResolveNodePath(doc, "/1/0")
	if err != nil || n.Label != "d" {
		t.Errorf("ResolveNodePath = %v, %v", n, err)
	}
	root, err := ResolveNodePath(doc, "/")
	if err != nil || root != doc {
		t.Errorf("root path failed")
	}
	if _, err := ResolveNodePath(doc, "/9"); err == nil {
		t.Errorf("out of range should fail")
	}
	if _, err := ResolveNodePath(doc, "/x"); err == nil {
		t.Errorf("non-numeric should fail")
	}
}

func TestNodePathRoundTrip(t *testing.T) {
	doc := xmltree.MustParse(`<a><b><c/><d/></b><e/></a>`)
	doc.Walk(func(n *xmltree.Node) bool {
		back, err := ResolveNodePath(doc, NodePathOf(n))
		if err != nil || back != n {
			t.Errorf("round trip failed for %s: %v", n.Label, err)
		}
		return true
	})
}

func TestParseTwigTask(t *testing.T) {
	src := `
# two docs, one annotation each
doc <lib><book><title/><year/></book><book><title/></book></lib>
doc <lib><book><year/><title/></book></lib>
pos 0 /0/0
pos 1 /0/1
schema root lib
schema lib -> book*
schema book -> title || year?
`
	task, err := ParseTwigTask(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Docs) != 2 || len(task.Examples) != 2 {
		t.Fatalf("task = %+v", task)
	}
	if task.Schema == nil || task.Schema.Root != "lib" {
		t.Errorf("schema not parsed")
	}
	q, err := LearnXMLQuery(task.Examples, XMLOptions{Schema: task.Schema})
	if err != nil {
		t.Fatal(err)
	}
	// Both annotated titles are under books with years; title is
	// schema-implied so the filter [year] remains, [title] goes.
	if !strings.Contains(q.String(), "title") {
		t.Errorf("learned %s", q)
	}
}

func TestParseTwigTaskErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"pos 0 /",
		"doc <a></a>\npos 5 /",
		"doc <a></a>\nwhat 1",
		"doc <a",
	} {
		if _, err := ParseTwigTask(bad); err == nil {
			t.Errorf("ParseTwigTask(%q) should fail", bad)
		}
	}
}

func TestParseJoinTask(t *testing.T) {
	src := `
left People id,city
lrow 1,lille
lrow 2,paris
right Orders buyer,place
rrow 1,lille
rrow 2,rome
pos 0 0
neg 0 1
`
	task, err := ParseJoinTask(src)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := LearnJoinQuery(task.Left, task.Right, task.Examples)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) == 0 {
		t.Errorf("no predicate learned")
	}
}

func TestParseJoinTaskSemijoin(t *testing.T) {
	src := `
left L a
lrow 1
lrow 9
right R b
rrow 1
semijoin
pos 0
neg 1
`
	task, err := ParseJoinTask(src)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Semijoin || len(task.SemiExamples) != 2 {
		t.Fatalf("task = %+v", task)
	}
}

func TestParseJoinTaskErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"left L a\nlrow 1", // missing right
		"lrow 1",           // row before relation
		"left L a\nleft L a\npos x y",
	} {
		if _, err := ParseJoinTask(bad); err == nil {
			t.Errorf("ParseJoinTask(%q) should fail", bad)
		}
	}
}

func TestParsePathTask(t *testing.T) {
	src := `
edge lille highway paris
edge paris highway lyon
edge lille ferry dover
pos lille lyon
neg lille dover
`
	task, err := ParsePathTask(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := LearnPathQuery(task.Graph, task.Examples)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "highway") {
		t.Errorf("learned %s", q)
	}
}

func TestParsePathTaskErrors(t *testing.T) {
	for _, bad := range []string{
		"edge a r",        // arity
		"pos a b",         // unknown nodes
		"edge a r b\nhmm", // unknown directive
	} {
		if _, err := ParsePathTask(bad); err == nil {
			t.Errorf("ParsePathTask(%q) should fail", bad)
		}
	}
}

func TestParseSchemaTask(t *testing.T) {
	task, err := ParseSchemaTask("doc <r><a/></r>\ndoc <r/>\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Docs) != 2 {
		t.Fatalf("docs = %d", len(task.Docs))
	}
	if _, err := ParseSchemaTask(""); err == nil {
		t.Errorf("empty task should fail")
	}
	if _, err := ParseSchemaTask("nope"); err == nil {
		t.Errorf("bad directive should fail")
	}
}
