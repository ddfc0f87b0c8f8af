package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestManagerCreateGetDelete(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Get(s.ID()); err != nil || got != s {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
	if err := m.Delete(s.ID()); err != nil {
		t.Errorf("Delete = %v", err)
	}
	if err := m.Delete(s.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(s.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if m.Len() != 0 {
		t.Errorf("Len after delete = %d", m.Len())
	}
}

func TestManagerMaxSessions(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if _, err := m.Create("join", joinTask, CreateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create("join", joinTask, CreateOptions{}); !errors.Is(err, ErrTooManySessions) {
		t.Errorf("over-cap create = %v, want ErrTooManySessions", err)
	}
	// A failed parse must release its reservation: after freeing one slot
	// and burning a parse failure, a good create still fits.
	first, _ := m.Get(firstID(m))
	m.Delete(first.ID())
	if _, err := m.Create("join", "garbage", CreateOptions{}); err == nil || errors.Is(err, ErrTooManySessions) {
		t.Fatalf("garbage create = %v, want parse error", err)
	}
	if _, err := m.Create("join", joinTask, CreateOptions{}); err != nil {
		t.Errorf("parse failure consumed a session slot: %v", err)
	}
}

// firstID finds any live session id.
func firstID(m *Manager) string {
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id := range sh.m {
			sh.mu.Unlock()
			return id
		}
		sh.mu.Unlock()
	}
	return ""
}

func TestAnswerBatchAndBudget(t *testing.T) {
	m := NewManager(Config{CostPerHIT: 0.05})
	s, err := m.Create("join", joinTask, CreateOptions{MaxCost: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Answer([]Answer{
		{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true},
		{Item: json.RawMessage(`{"left":0,"right":1}`), Positive: false},
	}, ReconcileNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.HITs != 2 || res.Cost != 0.1 {
		t.Errorf("result = %+v", res)
	}
	// The next label would cost $0.15 > $0.12: budget refusal, atomically.
	_, err = s.Answer([]Answer{{Item: json.RawMessage(`{"left":1,"right":1}`), Positive: false}}, ReconcileNone)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget answer = %v", err)
	}
	if st := s.Status(); st.HITs != 2 || st.Answers != 2 {
		t.Errorf("refused batch still accounted: %+v", st)
	}
}

func TestAnswerMajorityReconciliation(t *testing.T) {
	m := NewManager(Config{CostPerHIT: 1})
	s, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	item := json.RawMessage(`{"left":0,"right":0}`)
	reordered := json.RawMessage(`{"right":0,"left":0}`)
	res, err := s.Answer([]Answer{
		{Item: item, Positive: true},
		{Item: reordered, Positive: true},
		{Item: item, Positive: false}, // outvoted worker error
	}, ReconcileMajority)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Errorf("Applied = %d, want 1 (three votes, one item)", res.Applied)
	}
	if res.HITs != 3 || res.Cost != 3 {
		t.Errorf("votes must all be paid: %+v", res)
	}
	// A tie must be rejected before anything is applied.
	_, err = s.Answer([]Answer{
		{Item: json.RawMessage(`{"left":1,"right":1}`), Positive: true},
		{Item: json.RawMessage(`{"left":1,"right":1}`), Positive: false},
	}, ReconcileMajority)
	if err == nil || errors.Is(err, ErrFailed) {
		t.Errorf("tie = %v, want plain error", err)
	}
	if st := s.Status(); st.Failed != "" || st.HITs != 3 {
		t.Errorf("tie marked session failed or was charged: %+v", st)
	}
}

// TestMalformedAnswersDoNotPoisonSession: input-validation failures reject
// the batch (uncharged, unapplied) and the dialogue continues; only genuine
// version-space inconsistency marks the session failed.
func TestMalformedAnswersDoNotPoisonSession(t *testing.T) {
	m := NewManager(Config{CostPerHIT: 1})
	s, err := m.Create("path", pathTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := Answer{Item: json.RawMessage(`{"src":"lille","dst":"paris"}`), Positive: false}
	bad := Answer{Item: json.RawMessage(`{"src":"lile","dst":"paris"}`), Positive: false} // typo'd node
	if _, err := s.Answer([]Answer{good, bad}, ReconcileNone); err == nil || errors.Is(err, ErrFailed) {
		t.Fatalf("malformed batch = %v, want plain validation error", err)
	}
	st := s.Status()
	if st.Failed != "" {
		t.Fatalf("validation failure poisoned the session: %q", st.Failed)
	}
	if st.HITs != 0 || st.Answers != 0 {
		t.Errorf("rejected batch was charged or applied: %+v", st)
	}
	// The dialogue continues normally afterwards (it may converge, but it
	// must not be failed).
	if _, err := s.Answer([]Answer{good}, ReconcileNone); err != nil {
		t.Fatalf("session unusable after rejected batch: %v", err)
	}
	if _, _, err := s.Question(); err != nil {
		t.Errorf("Question after recovery: %v", err)
	}
	if h, err := s.Hypothesis(); err != nil || h.Query == "" {
		t.Errorf("Hypothesis after recovery: %+v, %v", h, err)
	}
}

func TestInconsistentAnswersFailSession(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	item := json.RawMessage(`{"left":0,"right":0}`)
	// Labeling the same pair positive after building a version space where
	// its agreement set was already excluded trips the consistency check.
	if _, err := s.Answer([]Answer{{Item: item, Positive: false}}, ReconcileNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Answer([]Answer{{Item: item, Positive: true}}, ReconcileNone); !errors.Is(err, ErrFailed) {
		t.Fatalf("inconsistent answer = %v, want ErrFailed", err)
	}
	if _, _, err := s.Question(); !errors.Is(err, ErrFailed) {
		t.Errorf("Question on failed session = %v", err)
	}
	if st := s.Status(); st.Failed == "" || st.HITs != 1 {
		t.Errorf("status not marked failed, or the rejected batch was charged: %+v", st)
	}
}

// TestSnapshotResumeEquivalence checks the tentpole persistence property: a
// session snapshotted mid-dialogue and resumed elsewhere learns exactly the
// same query as one that ran uninterrupted.
func TestSnapshotResumeEquivalence(t *testing.T) {
	orcs := oracles(t)
	for model, task := range tasks() {
		oracle := orcs[model]

		// Uninterrupted control run.
		control, err := NewLimited(model, task, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		wantHyp, _ := drive(t, control, oracle)

		// Interrupted run: answer half the dialogue, snapshot, resume in a
		// different manager, finish there.
		m1 := NewManager(Config{CostPerHIT: 0.10})
		s1, err := m1.Create(model, task, CreateOptions{MaxCost: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			q, ok, err := s1.Question()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, err := s1.Answer([]Answer{{Item: q.Item, Positive: oracle(q.Item)}}, ReconcileNone); err != nil {
				t.Fatal(err)
			}
		}
		snap := s1.Snapshot()
		if snap.Model != model || snap.Task != task {
			t.Fatalf("%s snapshot lost identity: %+v", model, snap)
		}
		// Snapshots must survive a JSON round-trip (the wire format).
		wire, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}

		m2 := NewManager(Config{CostPerHIT: 0.10})
		s2, err := m2.Resume(back)
		if err != nil {
			t.Fatalf("%s resume: %v", model, err)
		}
		if got := s2.Status(); got.HITs != snap.HITs || got.Cost != snap.Cost {
			t.Errorf("%s resume lost accounting: %+v vs snapshot %+v", model, got, snap)
		}
		for {
			q, ok, err := s2.Question()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, err := s2.Answer([]Answer{{Item: q.Item, Positive: oracle(q.Item)}}, ReconcileNone); err != nil {
				t.Fatal(err)
			}
		}
		gotHyp, err := s2.Hypothesis()
		if err != nil {
			t.Fatal(err)
		}
		if gotHyp.Query != wantHyp.Query {
			t.Errorf("%s: resumed session learned %q, uninterrupted learned %q",
				model, gotHyp.Query, wantHyp.Query)
		}
	}
}

func TestResumeConflicts(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(s.Snapshot()); !errors.Is(err, ErrExists) {
		t.Errorf("resume over live session = %v, want ErrExists", err)
	}
	if _, err := m.Resume(Snapshot{Model: "join", Task: joinTask}); err == nil {
		t.Errorf("resume without id should fail")
	}
	bad := s.Snapshot()
	bad.ID = "sother"
	bad.Answers = []Answer{{Item: json.RawMessage(`{"left":99,"right":0}`), Positive: true}}
	if _, err := m.Resume(bad); err == nil {
		t.Errorf("resume with corrupt answer log should fail")
	}
}

// TestTTLEviction drives the clock by hand: sessions idle past the TTL are
// swept, recently touched ones survive.
func TestTTLEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	m := NewManager(Config{TTL: time.Minute, Clock: clock})
	idle, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.SweepExpired(); n != 0 {
		t.Errorf("fresh sessions swept: %d", n)
	}
	advance(45 * time.Second)
	if _, _, err := busy.Question(); err != nil { // touches lastActive
		t.Fatal(err)
	}
	advance(30 * time.Second) // idle is now 75s idle, busy 30s
	if n := m.SweepExpired(); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if _, err := m.Get(idle.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("idle session survived: %v", err)
	}
	if _, err := m.Get(busy.ID()); err != nil {
		t.Errorf("busy session evicted: %v", err)
	}
	if st := m.Stats(); st.Expired != 1 || st.Live != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A stale pointer to the evicted session must refuse to apply labels —
	// the sweep/answer race cannot silently accept acknowledged answers
	// into an unreachable session.
	if _, err := idle.Answer([]Answer{{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true}}, ReconcileNone); !errors.Is(err, ErrNotFound) {
		t.Errorf("Answer on evicted session = %v, want ErrNotFound", err)
	}
	if _, _, err := idle.Question(); !errors.Is(err, ErrNotFound) {
		t.Errorf("Question on evicted session = %v, want ErrNotFound", err)
	}
	if _, err := idle.Hypothesis(); !errors.Is(err, ErrNotFound) {
		t.Errorf("Hypothesis on evicted session = %v, want ErrNotFound", err)
	}
}

// TestConcurrentLifecycleAcrossShards is the -race exercise: many goroutines
// create, converge, snapshot, and evict sessions simultaneously while a
// sweeper churns in the background.
func TestConcurrentLifecycleAcrossShards(t *testing.T) {
	m := NewManager(Config{Shards: 8, TTL: time.Hour})
	orcs := oracles(t)
	models := Models
	const workers = 32
	var wg sync.WaitGroup
	var converged atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				m.SweepExpired()
				m.Stats()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := models[w%len(models)]
			oracle := orcs[model]
			for i := 0; i < 3; i++ {
				s, err := m.Create(model, tasks()[model], CreateOptions{})
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				for {
					q, ok, err := s.Question()
					if err != nil {
						t.Errorf("question: %v", err)
						return
					}
					if !ok {
						break
					}
					if _, err := s.Answer([]Answer{{Item: q.Item, Positive: oracle(q.Item)}}, ReconcileNone); err != nil {
						t.Errorf("answer: %v", err)
						return
					}
				}
				_ = s.Snapshot()
				if err := m.Delete(s.ID()); err != nil {
					t.Errorf("delete lost session %s: %v", s.ID(), err)
					return
				}
				converged.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if m.Len() != 0 {
		t.Errorf("leaked %d sessions", m.Len())
	}
	if converged.Load() != workers*3 {
		t.Errorf("converged %d of %d runs", converged.Load(), workers*3)
	}
}

// TestConcurrentAnswersOneSession hammers a single session from many
// goroutines; per-session locking must serialize the learner.
func TestConcurrentAnswersOneSession(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracles(t)["join"]
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				q, ok, err := s.Question()
				if err != nil || !ok {
					return // converged (or failed by a racing duplicate — checked below)
				}
				// Everyone answers truthfully, so racing duplicates stay
				// consistent.
				if _, err := s.Answer([]Answer{{Item: q.Item, Positive: oracle(q.Item)}}, ReconcileNone); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Status(); st.Failed != "" {
		t.Fatalf("truthful concurrent answers failed the session: %s", st.Failed)
	}
	h, err := s.Hypothesis()
	if err != nil {
		t.Fatal(err)
	}
	if h.Query != "city=place & id=buyer" {
		t.Errorf("learned %q under concurrency", h.Query)
	}
}

// failingJournal rejects every append — the disk-on-fire case.
type failingJournal struct{ err error }

func (f failingJournal) Append(Event) error { return f.err }

// TestJournalFailureAbortsMutations: a mutation whose write-ahead append
// fails must roll back completely (no session, no charge) and classify as
// ErrJournal, not as a client error.
func TestJournalFailureAbortsMutations(t *testing.T) {
	m := NewManager(Config{Journal: failingJournal{errors.New("disk on fire")}})
	if _, err := m.Create("join", joinTask, CreateOptions{}); !errors.Is(err, ErrJournal) {
		t.Fatalf("create with dead journal = %v, want ErrJournal", err)
	}
	if m.Len() != 0 {
		t.Errorf("failed create leaked a session: Len = %d", m.Len())
	}
	if st := m.Stats(); st.Created != 0 {
		t.Errorf("failed create counted: %+v", st)
	}

	// A healthy manager's session, resumed into the dead-journal manager.
	healthy := NewManager(Config{})
	s, err := healthy.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(s.Snapshot()); !errors.Is(err, ErrJournal) {
		t.Errorf("resume with dead journal = %v, want ErrJournal", err)
	}
	if m.Len() != 0 {
		t.Errorf("failed resume leaked a session: Len = %d", m.Len())
	}

	// Answers on a session that outlived its journal are rejected uncharged,
	// and deletes keep the session live.
	mgr2 := NewManager(Config{})
	s2, err := mgr2.Create("join", joinTask, CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mgr2.cfg.Journal = failingJournal{errors.New("disk on fire")}
	if _, err := s2.Answer([]Answer{{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true}}, ReconcileNone); !errors.Is(err, ErrJournal) {
		t.Errorf("answer with dead journal = %v, want ErrJournal", err)
	}
	if st := s2.Status(); st.HITs != 0 || st.Answers != 0 || st.Failed != "" {
		t.Errorf("failed answer charged or poisoned the session: %+v", st)
	}
	if err := mgr2.Delete(s2.ID()); !errors.Is(err, ErrJournal) {
		t.Errorf("delete with dead journal = %v, want ErrJournal", err)
	}
	if _, err := mgr2.Get(s2.ID()); err != nil {
		t.Errorf("failed delete evicted the session anyway: %v", err)
	}
}

func TestManagerStatsCount(t *testing.T) {
	m := NewManager(Config{})
	var ids []string
	for i := 0; i < 5; i++ {
		s, err := m.Create("path", pathTask, CreateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID())
	}
	for _, id := range ids[:2] {
		m.Delete(id)
	}
	st := m.Stats()
	if st.Created != 5 || st.Deleted != 2 || st.Live != 3 {
		t.Errorf("stats = %+v", st)
	}
	if fmt.Sprint(st.Live) != fmt.Sprint(m.Len()) {
		t.Errorf("Live %d != Len %d", st.Live, m.Len())
	}
}
