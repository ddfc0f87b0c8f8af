package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"querylearn/internal/codec"
	"querylearn/internal/session"
)

// journalPayloads reads every intact record payload in dir's journal.
func journalPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var payloads [][]byte
	for {
		p, err := readRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("journal unexpectedly torn: %v", err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

// countFormats tallies a journal's records by wire format.
func countFormats(payloads [][]byte) (v1, v2 int) {
	for _, p := range payloads {
		if codec.IsV2(p) {
			v2++
		} else {
			v1++
		}
	}
	return v1, v2
}

// v1Journal is a test-only session.Journal that appends every event the way
// pre-v2 stores did — one framed JSON record per event, no dictionary — so
// the tests can produce the v1 journals the store still has to read.
type v1Journal struct{ f *os.File }

func openV1Journal(t *testing.T, dir string) *v1Journal {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return &v1Journal{f: f}
}

func (j *v1Journal) Append(ev session.Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = j.f.Write(FrameRecord(nil, payload))
	return err
}

// replayV1 recovers dir's journal without opening a Store, so nothing is
// compacted and a v1 journal stays v1.
func replayV1(t *testing.T, dir string) []session.Snapshot {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res := replayJournal(f)
	if res.tailErr != nil {
		t.Fatalf("v1 journal torn: %v", res.tailErr)
	}
	return res.snaps
}

// formatRunResult is one scenario run's observable outcome: final snapshot
// and hypothesis bytes per model.
type formatRunResult struct {
	snap map[string]string
	hyp  map[string]string
}

// runFormatScenario drives one deterministic dialogue against a fresh data
// dir: resume four fixed-id sessions (one per model learner) with the
// journal written in the phase1 format, answer twice each, crash, recover
// and go on in the phase2 format, answer once more each, crash again, and
// recover. A v1 phase writes through v1Journal and recovers with replayV1;
// a v2 phase is a real Store, whose boot compaction rewrites the journal as
// v2 (the in-place upgrade when phase1 was v1). Fixed ids, a pinned clock,
// and truthful oracles make two runs byte-comparable.
func runFormatScenario(t *testing.T, phase1, phase2 string) formatRunResult {
	t.Helper()
	oracles := crashOracles(t)
	tasks := crashTasks()
	clock := func() time.Time { return time.Unix(1754650000, 0).UTC() }
	dir := t.TempDir()

	models := make([]string, 0, len(tasks))
	for m := range tasks {
		models = append(models, m)
	}
	sort.Strings(models)

	newMgr := func(j session.Journal) *session.Manager {
		return session.NewManager(session.Config{Journal: j, CostPerHIT: 0.05, Clock: clock})
	}
	answer := func(s *session.Session, model string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			q, ok, err := s.Question()
			if err != nil {
				t.Fatalf("%s question: %v", model, err)
			}
			if !ok {
				return
			}
			if _, err := s.Answer([]session.Answer{
				{Item: q.Item, Positive: oracles[model](q.Item)},
			}, session.ReconcileNone); err != nil {
				t.Fatalf("%s answer: %v", model, err)
			}
		}
	}

	// open recovers dir under format and returns the manager's journal, the
	// recovered sessions, and the crash that abandons the journal.
	open := func(format string) (session.Journal, []session.Snapshot, func()) {
		t.Helper()
		if format == FormatV1 {
			var snaps []session.Snapshot
			if _, err := os.Stat(filepath.Join(dir, journalName)); err == nil {
				snaps = replayV1(t, dir)
			}
			j := openV1Journal(t, dir)
			return j, snaps, func() { j.f.Close() }
		}
		st, snaps, err := Open(dir, Options{Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		return st, snaps, st.Abandon
	}

	// Phase 1: four sessions two answers deep, then a crash.
	j, _, crash := open(phase1)
	mgr := newMgr(j)
	for _, model := range models {
		s, err := mgr.Resume(session.Snapshot{
			ID: "fmt-" + model, Model: model, Task: tasks[model],
			MaxCost: 100, CreatedAt: clock(),
		})
		if err != nil {
			t.Fatalf("%s resume: %v", model, err)
		}
		answer(s, model, 2)
	}
	crash()
	if phase1 == FormatV1 {
		if v1Count, v2Count := countFormats(journalPayloads(t, dir)); v2Count != 0 || v1Count == 0 {
			t.Fatalf("phase-1 v1 journal: %d v1 / %d v2 records, want pure v1", v1Count, v2Count)
		}
	}

	// Phase 2: reopen under phase2's format — when phase1 was v1 and phase2
	// is v2 this is the in-place upgrade — and go one answer deeper.
	j2, snaps, crash2 := open(phase2)
	mgr2 := newMgr(j2)
	if n, err := mgr2.Recover(snaps); n != len(models) || err != nil {
		t.Fatalf("phase-2 recover = %d, %v (want %d)", n, err, len(models))
	}
	for _, model := range models {
		s, err := mgr2.Get("fmt-" + model)
		if err != nil {
			t.Fatalf("%s lost in phase-2 recovery: %v", model, err)
		}
		answer(s, model, 1)
	}
	crash2()

	if phase2 == FormatV2 {
		// The upgrade must be real: after the v2 boot compaction every
		// journal record — compacted snapshots and the new appends alike —
		// is a v2 frame.
		v1Count, v2Count := countFormats(journalPayloads(t, dir))
		if v1Count != 0 || v2Count == 0 {
			t.Fatalf("journal after v2 open+appends: %d v1 / %d v2 records, want pure v2", v1Count, v2Count)
		}
	}

	// Final recovery: what an operator gets back after the whole history.
	j3, snaps3, crash3 := open(phase2)
	defer crash3()
	mgr3 := newMgr(j3)
	if n, err := mgr3.Recover(snaps3); n != len(models) || err != nil {
		t.Fatalf("final recover = %d, %v (want %d)", n, err, len(models))
	}
	res := formatRunResult{snap: map[string]string{}, hyp: map[string]string{}}
	for _, model := range models {
		s, err := mgr3.Get("fmt-" + model)
		if err != nil {
			t.Fatalf("%s lost in final recovery: %v", model, err)
		}
		sb, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Hypothesis()
		if err != nil {
			t.Fatalf("%s hypothesis: %v", model, err)
		}
		hb, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		res.snap[model] = string(sb)
		res.hyp[model] = string(hb)
	}
	return res
}

// TestMixedVersionRecoveryDifferential is the format-v2 equivalence proof:
// a journal with v1 records, a crash, a v2 compaction, more v2 records →
// recovery must produce byte-identical Snapshot and Hypothesis output for
// all four model learners versus the same dialogue run purely on JSON.
func TestMixedVersionRecoveryDifferential(t *testing.T) {
	pure := runFormatScenario(t, FormatV1, FormatV1)
	mixed := runFormatScenario(t, FormatV1, FormatV2)
	for model, want := range pure.snap {
		if got := mixed.snap[model]; got != want {
			t.Errorf("%s snapshot diverged between formats:\n v2 %s\n v1 %s", model, got, want)
		}
	}
	for model, want := range pure.hyp {
		if got := mixed.hyp[model]; got != want {
			t.Errorf("%s hypothesis diverged between formats:\n v2 %s\n v1 %s", model, got, want)
		}
	}
}

// TestPureV2Scenario runs the same dialogue natively on v2 end to end and
// checks it against the pure-JSON truth — no v1 records ever written.
func TestPureV2Scenario(t *testing.T) {
	pure := runFormatScenario(t, FormatV1, FormatV1)
	v2 := runFormatScenario(t, FormatV2, FormatV2)
	for model, want := range pure.snap {
		if got := v2.snap[model]; got != want {
			t.Errorf("%s snapshot diverged on native v2:\n v2 %s\n v1 %s", model, got, want)
		}
	}
}

// TestJournalDump smoke-tests the forensics path on a mixed-format journal.
func TestJournalDump(t *testing.T) {
	var journal bytes.Buffer
	now := time.Unix(1754650000, 0).UTC()
	v1Payload, err := json.Marshal(session.Event{
		Kind: session.EventCreate, ID: "s1", Model: "join", Task: "left L a\n", CreatedAt: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	journal.Write(FrameRecord(nil, v1Payload))
	enc := codec.NewEncoder()
	buf, dictEnd, err := enc.EncodeEvent(nil, session.Event{
		Kind: session.EventAnswers, ID: "s1", HITs: 1, Cost: 0.05,
		Answers: []session.Answer{{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc.Commit()
	for _, p := range [][]byte{buf[:dictEnd], buf[dictEnd:]} {
		if _, err := appendRecord(&journal, p); err != nil {
			t.Fatal(err)
		}
	}
	journal.Write([]byte("torn tail bytes")) // a crash mid-record

	var out bytes.Buffer
	if err := DumpJournal(bytes.NewReader(journal.Bytes()), &out); err != nil {
		t.Fatal(err)
	}
	var lines []dumpLine
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	for dec.More() {
		var l dumpLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("dump output is not JSON lines: %v\n%s", err, out.Bytes())
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("dump produced %d lines, want 4 (v1 event, dict, v2 event, torn tail):\n%s", len(lines), out.Bytes())
	}
	if lines[0].Format != FormatV1 || lines[0].Type != "event" || !bytes.Equal(lines[0].Event, v1Payload) {
		t.Errorf("line 0 should be the verbatim v1 event: %+v", lines[0])
	}
	if lines[1].Format != FormatV2 || lines[1].Type != "dict" || len(lines[1].Strings) == 0 {
		t.Errorf("line 1 should be the dictionary record: %+v", lines[1])
	}
	if lines[2].Format != FormatV2 || lines[2].Type != "event" {
		t.Errorf("line 2 should be the v2 event: %+v", lines[2])
	}
	var ev session.Event
	if err := json.Unmarshal(lines[2].Event, &ev); err != nil || ev.Kind != session.EventAnswers || len(ev.Answers) != 1 {
		t.Errorf("line 2 event did not re-render faithfully: %s (err %v)", lines[2].Event, err)
	}
	if lines[3].TornTail == "" {
		t.Errorf("torn tail not reported: %+v", lines[3])
	}
}
