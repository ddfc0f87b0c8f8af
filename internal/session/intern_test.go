package session

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestInternAnswersShares pins the vocabulary-sharing contract: equal item
// bytes across batches collapse to one canonical backing array, item
// content is never altered, and the session's answer log ends up holding
// the shared copies rather than slices of request buffers.
func TestInternAnswersShares(t *testing.T) {
	in := newItemInterner()
	a := []Answer{{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true}}
	b := []Answer{{Item: json.RawMessage(`{"left":0,"right":0}`)}, {Item: json.RawMessage(`{"left":1,"right":1}`)}}
	in.internAnswers(a)
	in.internAnswers(b)
	if !bytes.Equal(a[0].Item, []byte(`{"left":0,"right":0}`)) {
		t.Fatalf("interning altered item bytes: %s", a[0].Item)
	}
	if &a[0].Item[0] != &b[0].Item[0] {
		t.Error("equal items do not share a backing array after interning")
	}
	if items, bs := in.stats(); items != 2 || bs != int64(len(a[0].Item)+len(b[1].Item)) {
		t.Errorf("stats = %d items, %d bytes; want 2 items", items, bs)
	}
	// Nil interner and empty items are no-ops.
	var nilIn *itemInterner
	nilIn.internAnswers(a)
	in.internAnswers([]Answer{{}})
}

// TestDecodeMemo pins the decode-cache contract: a hit returns the memoized
// struct, the memo is keyed per model (the same bytes may mean different
// things to different learners), and the nil interner — what a learner
// built outside a manager holds — always misses.
func TestDecodeMemo(t *testing.T) {
	in := newItemInterner()
	raw := json.RawMessage(`{"left":1,"right":2}`)
	if _, ok := in.getDecoded("join", raw); ok {
		t.Fatal("hit on an empty memo")
	}
	type item struct{ Left, Right int }
	in.putDecoded("join", raw, item{1, 2})
	v, ok := in.getDecoded("join", raw)
	if !ok || v.(item) != (item{1, 2}) {
		t.Fatalf("getDecoded = %v, %v; want {1 2}, true", v, ok)
	}
	if _, ok := in.getDecoded("path", raw); ok {
		t.Error("memo leaked across models")
	}
	var nilIn *itemInterner
	if _, ok := nilIn.getDecoded("join", raw); ok {
		t.Error("nil interner hit")
	}
	nilIn.putDecoded("join", raw, item{}) // must not panic
}

// TestManagerAnswersInterned checks the wiring: after a live Answer, the
// retained answer log shares bytes with the manager-wide vocabulary rather
// than the caller's buffer.
func TestManagerAnswersInterned(t *testing.T) {
	mgr := NewManager(Config{})
	s1, err := mgr.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mgr.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct buffers with equal content, as two requests would carry.
	item1 := json.RawMessage(`{"left":0,"right":0}`)
	item2 := json.RawMessage(`{"left":0,"right":0}`)
	if _, err := s1.Answer([]Answer{{Item: item1, Positive: true}}, ReconcileNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Answer([]Answer{{Item: item2, Positive: true}}, ReconcileNone); err != nil {
		t.Fatal(err)
	}
	i1 := s1.Snapshot().Answers[0].Item
	i2 := s2.Snapshot().Answers[0].Item
	if &i1[0] != &i2[0] {
		t.Error("two sessions' equal answer items do not share vocabulary bytes")
	}
	if &i1[0] == &item1[0] {
		t.Error("retained item still points into the caller's buffer")
	}
	if st := mgr.Stats(); st.InternItems != 1 {
		t.Errorf("InternItems = %d, want 1", st.InternItems)
	}
}
