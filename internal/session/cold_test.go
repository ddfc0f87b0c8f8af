package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"querylearn/internal/obs"
)

// journaledSnapshots runs one dialogue per model one answer in and returns
// the snapshots, the state store.Open hands Recover at boot.
func journaledSnapshots(t *testing.T) []Snapshot {
	t.Helper()
	orcs := oracles(t)
	m := NewManager(Config{})
	var snaps []Snapshot
	for _, model := range Models {
		s, err := m.Create(model, tasks()[model], CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		q, ok, err := s.Question()
		if err != nil || !ok {
			t.Fatalf("%s: first question = %v, %v", model, ok, err)
		}
		if _, err := s.Answer([]Answer{{Item: q.Item, Positive: orcs[model](q.Item)}}, ReconcileNone); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s.Snapshot())
	}
	return snaps
}

// recordingJournal keeps what the manager journals and compacts.
type recordingJournal struct {
	mu        sync.Mutex
	events    []Event
	compacted []Snapshot
}

func (j *recordingJournal) Append(ev Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	return nil
}

func (j *recordingJournal) Compact(snaps []Snapshot) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.compacted = snaps
	return nil
}

// cold reports whether the session's learner is still unbuilt.
func cold(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.learner == nil
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstQuestion asks an eagerly resumed copy of snap for its next question:
// the answer a cold session's first touch must reproduce.
func firstQuestion(t *testing.T, snap Snapshot) []Question {
	t.Helper()
	s, err := NewManager(Config{}).Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Questions(1)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestRecoverRegistersCold: recovery builds no learner, and the operations
// that need none (Status, List, Snapshot, Compact, the TTL sweep, Delete)
// serve a recovered session without building it.
func TestRecoverRegistersCold(t *testing.T) {
	snaps := journaledSnapshots(t)
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	j := &recordingJournal{}
	m := NewManager(Config{Journal: j, TTL: time.Minute, Clock: clock, CostPerHIT: 0.5})
	if n, err := m.Recover(snaps); n != len(snaps) || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	var live []*Session
	for _, snap := range snaps {
		s, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
		if got := s.Status(); got.Answers != len(snap.Answers) || got.HITs != snap.HITs || got.Cost != 0.5*float64(snap.HITs) || got.Failed != "" {
			t.Errorf("%s: status %+v for snapshot %+v", snap.Model, got, snap)
		}
		rederived := snap
		rederived.Cost = 0.5 * float64(snap.HITs) // at this manager's rate
		if got, want := mustJSON(t, s.Snapshot()), mustJSON(t, rederived); got != want {
			t.Errorf("%s: snapshot of the cold session\n got %s\nwant %s", snap.Model, got, want)
		}
	}
	if page, _ := m.List(100, ""); len(page) != len(snaps) {
		t.Errorf("List = %d sessions, want %d", len(page), len(snaps))
	}
	if n, err := m.Compact(); n != len(snaps) || err != nil || len(j.compacted) != len(snaps) {
		t.Errorf("Compact = %d, %v (%d compacted)", n, err, len(j.compacted))
	}
	if n := m.SweepExpired(); n != 0 {
		t.Errorf("sweep of fresh sessions removed %d", n)
	}
	if err := m.Delete(snaps[0].ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if n := m.SweepExpired(); n != len(snaps)-1 {
		t.Errorf("sweep removed %d, want %d", n, len(snaps)-1)
	}
	for i, s := range live {
		if !cold(s) {
			t.Errorf("%s: learner built by an operation that needs none", snaps[i].Model)
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after delete and sweep", m.Len())
	}
}

// TestConcurrentFirstTouchBuildsOnce: goroutines racing to touch a recovered
// session build its learner once, under the session lock, and all see the
// question an eagerly resumed copy asks.
func TestConcurrentFirstTouchBuildsOnce(t *testing.T) {
	const touchers = 8
	for _, snap := range journaledSnapshots(t) {
		want := mustJSON(t, firstQuestion(t, snap))
		m := NewManager(Config{})
		if n, err := m.Recover([]Snapshot{snap}); n != 1 || err != nil {
			t.Fatalf("Recover = %d, %v", n, err)
		}
		s, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		traces := make([]*obs.Trace, touchers)
		got := make([]string, touchers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range traces {
			traces[i] = obs.NewTrace(fmt.Sprint(i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				qs, err := s.QuestionsTraced(1, traces[i])
				if err != nil {
					t.Errorf("%s: toucher %d: %v", snap.Model, i, err)
					return
				}
				got[i] = mustJSON(t, qs)
			}()
		}
		close(start)
		wg.Wait()
		builds := 0
		for i, tr := range traces {
			for _, ph := range tr.Phases() {
				if ph.Name == "learner.build" {
					builds++
				}
			}
			if got[i] != want {
				t.Errorf("%s: toucher %d got %s, want %s", snap.Model, i, got[i], want)
			}
		}
		if builds != 1 {
			t.Errorf("%s: %d touchers built the learner, want 1", snap.Model, builds)
		}
	}
}

// TestRecoveredSessionFailsAtFirstTouch: a journaled session whose answers
// no longer replay is registered at boot and fails when first used, instead
// of being dropped; Status reports it and Delete removes it.
func TestRecoveredSessionFailsAtFirstTouch(t *testing.T) {
	m0 := NewManager(Config{})
	s0, err := m0.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	item := json.RawMessage(`{"left":0,"right":0}`)
	if _, err := s0.Answer([]Answer{{Item: item, Positive: false}}, ReconcileNone); err != nil {
		t.Fatal(err)
	}
	// The same pair labeled both ways: no join predicate fits the log.
	snap := s0.Snapshot()
	snap.Answers = append(snap.Answers, Answer{Item: item, Positive: true})
	snap.HITs++

	m := NewManager(Config{})
	if n, err := m.Recover([]Snapshot{snap}); n != 1 || err != nil {
		t.Fatalf("Recover = %d, %v; want the session registered", n, err)
	}
	s, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Failed != "" {
		t.Fatalf("failed before first touch: %+v", st)
	}
	if _, _, err := s.Question(); !errors.Is(err, ErrFailed) {
		t.Fatalf("first question = %v, want ErrFailed", err)
	}
	if st := s.Status(); st.Failed == "" || st.Answers != 2 {
		t.Errorf("status after failed touch = %+v", st)
	}
	if _, err := s.Hypothesis(); !errors.Is(err, ErrFailed) {
		t.Errorf("Hypothesis = %v, want ErrFailed", err)
	}
	if _, err := s.Answer([]Answer{{Item: item, Positive: false}}, ReconcileNone); !errors.Is(err, ErrFailed) {
		t.Errorf("Answer = %v, want ErrFailed", err)
	}
	if err := m.Delete(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	// A client resume stays eager: the same snapshot is rejected up front.
	if _, err := m.Resume(snap); err == nil {
		t.Error("client resume of an unreplayable snapshot succeeded")
	}
}

// TestAdoptRegistersCold: sessions taken over from a failed peer are
// journaled and registered cold like recovered ones, and their first touch
// asks what an eager resume asks.
func TestAdoptRegistersCold(t *testing.T) {
	snaps := journaledSnapshots(t)
	j := &recordingJournal{}
	m := NewManager(Config{Journal: j})
	if n, err := m.Adopt(snaps); n != len(snaps) || err != nil {
		t.Fatalf("Adopt = %d, %v", n, err)
	}
	if len(j.events) != len(snaps) {
		t.Errorf("adoption journaled %d events, want %d", len(j.events), len(snaps))
	}
	for _, snap := range snaps {
		s, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !cold(s) {
			t.Errorf("%s: adoption built the learner", snap.Model)
		}
		qs, err := s.Questions(1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustJSON(t, qs), mustJSON(t, firstQuestion(t, snap)); got != want {
			t.Errorf("%s: adopted session asks %s, eager resume %s", snap.Model, got, want)
		}
		if cold(s) {
			t.Errorf("%s: first touch left the learner unbuilt", snap.Model)
		}
	}
}
