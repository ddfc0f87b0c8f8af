package session

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// batchTasks builds, per model, a task whose initial frontier comfortably
// exceeds one 16-question batch (twig 19, join 64, path 39, schema 20).
func batchTasks() map[string]string {
	var tw strings.Builder
	tw.WriteString("doc <lib>")
	for i := 0; i < 20; i++ {
		tw.WriteString("<book><title/><year/></book>")
	}
	tw.WriteString("</lib>\npos 0 /0/0\n")

	var j strings.Builder
	j.WriteString("left P id,city\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&j, "lrow %d,c%d\n", i+1, i%3)
	}
	j.WriteString("right O buyer,place\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&j, "rrow %d,c%d\n", i+1, i%3)
	}

	var p strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&p, "edge n%d highway n%d\n", i, i+1)
		fmt.Fprintf(&p, "edge n%d road m%d\n", i, i)
	}
	p.WriteString("pos n0 n2\n")

	var s strings.Builder
	s.WriteString("doc <r>")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&s, "<l%d/>", i)
	}
	s.WriteString("</r>\n")

	return map[string]string{
		"twig": tw.String(), "join": j.String(), "path": p.String(), "schema": s.String(),
	}
}

// batchOracles answers the batchTasks dialogues: goals are /lib/book/title
// (twig), id=buyer & city=place with positives on the diagonal (join),
// highway.highway (path), and "root r with at least one of every label"
// (schema).
func batchOracles() map[string]func(json.RawMessage) bool {
	return map[string]func(json.RawMessage) bool{
		"twig": func(item json.RawMessage) bool {
			var it struct {
				Doc  int    `json:"doc"`
				Path string `json:"path"`
			}
			if json.Unmarshal(item, &it) != nil {
				return false
			}
			// Titles are child 0 of every book: paths /i/0.
			parts := strings.Split(strings.TrimPrefix(it.Path, "/"), "/")
			return len(parts) == 2 && parts[1] == "0"
		},
		"join": func(item json.RawMessage) bool {
			var it struct{ Left, Right int }
			if json.Unmarshal(item, &it) != nil {
				return false
			}
			return it.Left == it.Right
		},
		"path": func(item json.RawMessage) bool {
			var it struct{ Src, Dst string }
			if json.Unmarshal(item, &it) != nil {
				return false
			}
			// highway.highway on the n-chain: n{i} -> n{i+2}.
			var a, b int
			if n, _ := fmt.Sscanf(it.Src, "n%d", &a); n != 1 {
				return false
			}
			if n, _ := fmt.Sscanf(it.Dst, "n%d", &b); n != 1 {
				return false
			}
			return b == a+2
		},
		"schema": func(item json.RawMessage) bool {
			var it struct{ Doc string }
			if json.Unmarshal(item, &it) != nil {
				return false
			}
			for i := 0; i < 10; i++ {
				if !strings.Contains(it.Doc, fmt.Sprintf("<l%d/>", i)) {
					return false
				}
			}
			return true
		},
	}
}

// TestProposeBatchDistinct is the model-level acceptance check for the
// batch-first surface: Propose(16) returns 16 pairwise-distinct informative
// items for every model, all individually recordable, and Propose clamps
// k against the open-item count.
func TestProposeBatchDistinct(t *testing.T) {
	for model, task := range batchTasks() {
		l, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		qs, err := l.Propose(16)
		if err != nil {
			t.Fatalf("%s Propose: %v", model, err)
		}
		if len(qs) != 16 {
			t.Fatalf("%s: Propose(16) returned %d questions (fixture frontier too small?)", model, len(qs))
		}
		seen := map[string]bool{}
		for i, q := range qs {
			if q.Model != model {
				t.Errorf("%s question %d has model %q", model, i, q.Model)
			}
			if q.Remaining < 16 {
				t.Errorf("%s question %d reports remaining=%d < batch size", model, i, q.Remaining)
			}
			key, err := ItemKey(q.Item)
			if err != nil {
				t.Fatalf("%s question %d item: %v", model, i, err)
			}
			if seen[key] {
				t.Errorf("%s: duplicate item in batch: %s", model, q.Item)
			}
			seen[key] = true
			if err := l.Validate(q.Item); err != nil {
				t.Errorf("%s: proposed item fails validation: %v", model, err)
			}
		}
		// Clamping: k above the frontier truncates, k below 1 means 1.
		all, err := l.Propose(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 || len(all) != all[0].Remaining {
			t.Errorf("%s: Propose(huge) returned %d of %d open items", model, len(all), all[0].Remaining)
		}
		one, err := l.Propose(-5)
		if err != nil || len(one) != 1 {
			t.Errorf("%s: Propose(-5) = %d questions, err %v (want 1, nil)", model, len(one), err)
		}
	}
}

// driveBatched answers questions in batches of k until convergence.
func driveBatched(t *testing.T, l Learner, k int, oracle func(json.RawMessage) bool) (Hypothesis, int) {
	t.Helper()
	labels := 0
	for rounds := 0; ; rounds++ {
		if rounds > 1000 {
			t.Fatalf("%s k=%d did not converge", l.Model(), k)
		}
		qs, err := l.Propose(k)
		if err != nil {
			t.Fatalf("%s Propose: %v", l.Model(), err)
		}
		if len(qs) == 0 {
			break
		}
		for _, q := range qs {
			if err := l.Record(q.Item, oracle(q.Item)); err != nil {
				t.Fatalf("%s Record %s: %v", l.Model(), q.Item, err)
			}
			labels++
		}
	}
	h, err := l.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	return h, labels
}

// TestBatchVsSequentialDifferential pins the core batching property: a
// dialogue answered in k-batches converges to the same hypothesis as the
// classic one-question-at-a-time loop, for every model and several k.
func TestBatchVsSequentialDifferential(t *testing.T) {
	orcs := batchOracles()
	for model, task := range batchTasks() {
		seq, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := driveBatched(t, seq, 1, orcs[model])
		if !want.Converged {
			t.Fatalf("%s: sequential dialogue did not converge", model)
		}
		for _, k := range []int{4, 16} {
			batched, err := NewLimited(model, task, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := driveBatched(t, batched, k, orcs[model])
			if !got.Converged {
				t.Errorf("%s k=%d: batched dialogue did not converge", model, k)
			}
			if got.Query != want.Query {
				t.Errorf("%s k=%d: batched learned %q, sequential learned %q", model, k, got.Query, want.Query)
			}
		}
	}
}

// TestBatchAnswersSameAsSequentialAnswers pins the stronger per-step
// property behind the differential: recording one k-batch's items one by
// one equals the sequential replay of the same items — so snapshot/resume
// (which replays the answer log) is equivalence-preserving mid-batch.
func TestBatchAnswersSameAsSequentialAnswers(t *testing.T) {
	orcs := batchOracles()
	for model, task := range batchTasks() {
		a, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		qs, err := a.Propose(16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			verdict := orcs[model](q.Item)
			if err := a.Record(q.Item, verdict); err != nil {
				t.Fatalf("%s batch record: %v", model, err)
			}
			if err := b.Record(q.Item, verdict); err != nil {
				t.Fatalf("%s sequential record: %v", model, err)
			}
		}
		ha, err := a.Hypothesis()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Hypothesis()
		if err != nil {
			t.Fatal(err)
		}
		if ha.Query != hb.Query || ha.Converged != hb.Converged {
			t.Errorf("%s: batch hypothesis %+v != sequential %+v", model, ha, hb)
		}
	}
}
