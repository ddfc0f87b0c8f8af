package session

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// Shared task fixtures. Each is small enough for a dialogue to converge in a
// handful of questions, yet leaves genuinely informative items after its
// seed examples.
const (
	twigTask = `
doc <lib><book><title/><year/></book><book><title/></book></lib>
doc <lib><book><year/><title/></book></lib>
pos 0 /0/0
`
	joinTask = `
left P id,city
lrow 1,lille
lrow 2,paris
right O buyer,place
rrow 1,lille
rrow 2,rome
`
	pathTask = `
edge lille highway paris
edge paris highway lyon
edge lille ferry dover
pos lille lyon
`
	schemaTask = `
doc <r><a/><b/></r>
doc <r><a/><a/><b/></r>
`
)

func tasks() map[string]string {
	return map[string]string{
		"twig": twigTask, "join": joinTask, "path": pathTask, "schema": schemaTask,
	}
}

// oracles returns a deterministic goal oracle per model, phrased directly
// over the wire item encodings.
func oracles(t *testing.T) map[string]func(item json.RawMessage) bool {
	t.Helper()
	return map[string]func(item json.RawMessage) bool{
		// Goal: /lib/book[year]/title — titles of books that also have a year.
		"twig": func(item json.RawMessage) bool {
			var it struct {
				Doc  int    `json:"doc"`
				Path string `json:"path"`
			}
			mustUnmarshal(t, item, &it)
			return it.Doc == 0 && it.Path == "/0/0" || it.Doc == 1 && it.Path == "/0/1"
		},
		// Goal: id=buyer & city=place — only (0,0) matches.
		"join": func(item json.RawMessage) bool {
			var it struct{ Left, Right int }
			mustUnmarshal(t, item, &it)
			return it.Left == 0 && it.Right == 0
		},
		// Goal: highway.highway — lille->lyon only.
		"path": func(item json.RawMessage) bool {
			var it struct{ Src, Dst string }
			mustUnmarshal(t, item, &it)
			return it.Src == "lille" && it.Dst == "lyon"
		},
		// Goal: r -> a+ || b, a/b leaves.
		"schema": func(item json.RawMessage) bool {
			var it struct{ Doc string }
			mustUnmarshal(t, item, &it)
			as := strings.Count(it.Doc, "<a/>")
			bs := strings.Count(it.Doc, "<b/>")
			return as >= 1 && bs == 1 && strings.Count(it.Doc, "<r>") == 1
		},
	}
}

func mustUnmarshal(t *testing.T, raw json.RawMessage, into any) {
	t.Helper()
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// drive answers questions until the learner converges, returning the final
// hypothesis and the number of questions asked.
func drive(t *testing.T, l Learner, oracle func(json.RawMessage) bool) (Hypothesis, int) {
	t.Helper()
	questions := 0
	for {
		qs, err := l.Propose(1)
		if err != nil {
			t.Fatalf("%s Propose after %d questions: %v", l.Model(), questions, err)
		}
		if len(qs) == 0 {
			break
		}
		q := qs[0]
		questions++
		if questions > 500 {
			t.Fatalf("%s dialogue did not converge in 500 questions", l.Model())
		}
		if err := l.Record(q.Item, oracle(q.Item)); err != nil {
			t.Fatalf("%s Record %s: %v", l.Model(), q.Item, err)
		}
	}
	h, err := l.Hypothesis()
	if err != nil {
		t.Fatalf("%s Hypothesis: %v", l.Model(), err)
	}
	if !h.Converged {
		t.Errorf("%s hypothesis not marked converged after Propose returned nothing", l.Model())
	}
	return h, questions
}

func TestAllModelsConvergeToGoal(t *testing.T) {
	want := map[string]string{
		"twig":   "/lib/book[year]/title",
		"join":   "city=place & id=buyer",
		"path":   "highway.highway",
		"schema": "root r\na -> epsilon\nb -> epsilon\nr -> a+ || b\n",
	}
	orcs := oracles(t)
	for model, task := range tasks() {
		l, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatalf("New(%s): %v", model, err)
		}
		if l.Model() != model {
			t.Errorf("Model() = %q, want %q", l.Model(), model)
		}
		h, questions := drive(t, l, orcs[model])
		if h.Query != want[model] {
			t.Errorf("%s learned %q, want %q", model, h.Query, want[model])
		}
		if questions == 0 {
			t.Errorf("%s: expected a real dialogue, got 0 questions", model)
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct{ model, task, wantSub string }{
		{"nope", "x", "unknown model"},
		{"twig", "doc <a><b/></a>", "positive example"},
		{"twig", "garbage", "unknown directive"},
		{"join", "left L a\nlrow 1\nright R b\nrrow 1\nsemijoin\npos 0", "batch-only"},
		{"join", "lrow 1", "before its relation"},
		{"path", "edge a r b", "positive example"},
		{"schema", "", "no documents"},
	}
	for _, c := range cases {
		if _, err := NewLimited(c.model, c.task, Limits{}); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("New(%s, %q) error = %v, want containing %q", c.model, c.task, err, c.wantSub)
		}
	}
}

func TestRecordRejectsMalformedItems(t *testing.T) {
	// Malformed wire bodies must produce errors, not panics — the daemon's
	// contract.
	items := map[string][]string{
		"twig":   {`{"doc":99,"path":"/0"}`, `{"doc":0,"path":"/99"}`, `{"doc":"x"}`, `[1,2]`},
		"join":   {`{"left":-1,"right":0}`, `{"left":0,"right":99}`, `"nope"`},
		"path":   {`{"src":"ghost","dst":"lille"}`, `{"src":"lille","dst":"ghost"}`, `123`},
		"schema": {`{"doc":"<unclosed"}`, `{"doc":""}`, `{}`, `{"doc":"<other/>"}`},
	}
	// Items of another model must be rejected by the strict decoder, not
	// silently zero-valued into a wrong label.
	crossModel := map[string]string{
		"twig":   `{"left":0,"right":0}`,
		"join":   `{"src":"lille","dst":"lyon"}`,
		"path":   `{"doc":0,"path":"/0"}`,
		"schema": `{"left":0,"right":0}`,
	}
	for model, task := range tasks() {
		l, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatalf("New(%s): %v", model, err)
		}
		for _, raw := range append(items[model], crossModel[model]) {
			if err := l.Validate(json.RawMessage(raw)); err == nil {
				t.Errorf("%s Validate(%s) succeeded, want error", model, raw)
			}
			if err := l.Record(json.RawMessage(raw), true); err == nil {
				t.Errorf("%s Record(%s) succeeded, want error", model, raw)
			}
		}
	}
}

func TestPathSessionNodeLimit(t *testing.T) {
	// The version space is pool-projected and sparse, so the old dense
	// 4096-node ceiling is gone: a graph above it must create fine under the
	// default limits, while an explicitly tightened limit still rejects.
	var b strings.Builder
	for i := 0; i <= 4096; i++ {
		fmt.Fprintf(&b, "edge n%d r n%d\n", i, i+1)
	}
	// A two-hop seed (witness word r.r) so distance-1 pool pairs are
	// informative: r.r rejects them, the starred generalizations accept.
	b.WriteString("pos n0 n2\n")
	task := b.String()
	lim := Limits{PathPoolLimit: 60, PathPoolMaxLen: 3} // small pool keeps the test quick
	l, err := NewLimited("path", task, lim)
	if err != nil {
		t.Fatalf("4097-node graph rejected under default node limit: %v", err)
	}
	if qs, err := l.Propose(1); err != nil || len(qs) == 0 {
		t.Fatalf("big-graph session proposes nothing: qs=%v err=%v", qs, err)
	}
	lim.PathMaxNodes = 4096
	if _, err := NewLimited("path", task, lim); err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Errorf("tightened limit = %v, want node-limit error", err)
	}
}

func TestItemKeyCanonicalizesFieldOrder(t *testing.T) {
	a, err := ItemKey(json.RawMessage(`{"left":1,"right":2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ItemKey(json.RawMessage(`{"right":2, "left":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("keys differ for reordered fields: %q vs %q", a, b)
	}
	if _, err := ItemKey(json.RawMessage(`{broken`)); err == nil {
		t.Errorf("bad JSON should fail")
	}
}

func TestSchemaNegativeAnswersPruneFrontier(t *testing.T) {
	l, err := NewLimited("schema", schemaTask, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := l.Propose(1)
	if err != nil || len(qs) == 0 {
		t.Fatalf("Propose: %v, err=%v", qs, err)
	}
	q := qs[0]
	if err := l.Record(q.Item, false); err != nil {
		t.Fatalf("negative Record: %v", err)
	}
	qs, err = l.Propose(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) > 0 && string(qs[0].Item) == string(q.Item) {
		t.Errorf("rejected document proposed again: %s", q.Item)
	}
	// Negative answers must not change the hypothesis of a positive-only
	// learner.
	h, err := l.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.Query, "r -> a+ || b") {
		t.Errorf("hypothesis changed on negative answer: %q", h.Query)
	}
}
