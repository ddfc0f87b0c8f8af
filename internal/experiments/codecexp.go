package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// T17CodecRecovery measures the journal's binary format (internal/codec:
// binary frames plus a per-file string intern table) on its two paths:
//
//   - recovery: a cold store.Open — journal decode plus the boot-time
//     compaction rewrite — over a synthetic corpus. The learner rebuild
//     (Manager.Recover) is excluded, so the figure is the store layer's.
//   - serving: allocations per POST /v1/sessions/{id}/answers through the
//     full hot path (binary journal, pooled response buffers, item
//     interning), measured with testing.Benchmark so allocs/op and
//     bytes/op are exact.
//
// The comparison against the JSON record format and the unpooled,
// uninterned serving stack is recorded in BENCH_PR8.json.
func T17CodecRecovery(scale int) *Table {
	t := &Table{
		ID:     "T17",
		Title:  "journal format v2: recovery throughput and answer-path allocations",
		Claim:  "binary-journal recovery rate and pooled, interned POST answers allocations (v1 comparison: BENCH_PR8.json)",
		Header: []string{"phase", "arm", "sessions", "events", "journal KB", "elapsed ms", "rate"},
	}
	sessions := 1200 * scale
	const answersPer = 10

	if err := t17Recover(t, sessions, answersPer); err != nil {
		t.Rows = append(t.Rows, []string{"recover", "v2", "ERROR", err.Error(), "", "", ""})
	}

	res := testing.Benchmark(t17AnswerBench)
	t.Mem = append(t.Mem, MemStat{
		Label:       "answers/v2",
		N:           res.N,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	})
	t.Rows = append(t.Rows, []string{
		"answers", "v2+pooled+interned", "1", fmt.Sprint(res.N), "",
		fmt.Sprintf("%.4f", float64(res.NsPerOp())/1e6),
		fmt.Sprintf("%d allocs/op, %d B/op", res.AllocsPerOp(), res.AllocedBytesPerOp()),
	})

	t.Notes = append(t.Notes,
		"recover: fastest of 3 timed cold store.Opens (journal decode + boot compaction); learner rebuild excluded",
		fmt.Sprintf("corpus: %d sessions x (1 create + %d four-answer batch events), join fixture, %d distinct items — the repetition interning exploits", sessions, answersPer, t17DistinctItems),
		"answers: testing.Benchmark over the full in-process HTTP stack, one 8-label batch per op; allocs/op and bytes/op also land in the mem block of -json output",
	)
	return t
}

// t17Recover writes the corpus, times its best cold open and appends the
// recover row.
func t17Recover(t *Table, sessions, answersPer int) error {
	dir, err := os.MkdirTemp("", "querylearn-t17-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	events, journalBytes, err := t17Corpus(dir, sessions, answersPer)
	if err != nil {
		return err
	}
	recovered, elapsed, err := t17OpenBest(dir, 3)
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{
		"recover", "v2", fmt.Sprint(recovered), fmt.Sprint(events),
		fmt.Sprintf("%.0f", float64(journalBytes)/1024),
		fmt.Sprintf("%.1f", elapsed.Seconds()*1000),
		fmt.Sprintf("%.0f sessions/s", float64(recovered)/elapsed.Seconds()),
	})
	return nil
}

// t17DistinctItems bounds the synthetic answer vocabulary: every corpus
// event draws from this many distinct items, as a crowd labeling the same
// candidate pool does.
const t17DistinctItems = 64

func t17Item(j int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"left":%d,"right":%d}`, j%8, (j/8)%8))
}

// t17Corpus writes a synthetic uncompacted journal — sessions x (create +
// answer tail) — and abandons the store, as a crash would. Events go straight to the store so corpus size is decoupled from
// learner speed; they are ApplyEvent-valid, which is all recovery decodes.
func t17Corpus(dir string, sessions, answersPer int) (events, journalBytes int64, err error) {
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		return 0, 0, err
	}
	now := time.Now().UTC()
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("t17-%06d", i)
		if err := st.Append(session.Event{
			Kind: session.EventCreate, ID: id, Model: "join", Task: svcJoinTask, CreatedAt: now,
		}); err != nil {
			st.Abandon()
			return 0, 0, err
		}
		for j := 0; j < answersPer; j++ {
			// Four labels per event, as batched crowd dispatch submits them.
			batch := make([]session.Answer, 4)
			for k := range batch {
				batch[k] = session.Answer{Item: t17Item(i + j + k), Positive: (i+j+k)%3 == 0}
			}
			if err := st.Append(session.Event{
				Kind: session.EventAnswers, ID: id, Answers: batch,
				HITs: j + 1, Cost: float64(j+1) * 0.05,
			}); err != nil {
				st.Abandon()
				return 0, 0, err
			}
		}
	}
	stats := st.Stats()
	st.Abandon()
	return stats.Appended, stats.Bytes, nil
}

// t17Open times the cold open: replay plus boot compaction.
func t17Open(dir string) (sessions int, elapsed time.Duration, err error) {
	start := time.Now()
	st, snaps, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	elapsed = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	st.Close()
	return len(snaps), elapsed, nil
}

// t17OpenBest reports the fastest of reps cold opens. The first open
// compacts the journal in place, so each rep runs against a fresh copy of
// the corpus; a GC barrier before each keeps the corpus writer's allocation
// debt from being paid inside a timed region.
func t17OpenBest(src string, reps int) (sessions int, best time.Duration, err error) {
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp("", "querylearn-t17rep-")
		if err != nil {
			return 0, 0, err
		}
		if err := t17CopyDir(src, dir); err != nil {
			os.RemoveAll(dir)
			return 0, 0, err
		}
		runtime.GC()
		n, elapsed, err := t17Open(dir)
		os.RemoveAll(dir)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || elapsed < best {
			sessions, best = n, elapsed
		}
	}
	return sessions, best, nil
}

func t17CopyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// nullResponseWriter discards response bodies without allocating, so the
// benchmark's delta is the serving stack's own allocations, not the test
// recorder's.
type nullResponseWriter struct {
	hdr  http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.hdr }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// t17AnswerBench is the POST answers benchmark: a real store behind a
// session manager behind the HTTP handler, one 8-label batch per operation.
func t17AnswerBench(b *testing.B) {
	b.ReportAllocs()
	dir, err := os.MkdirTemp("", "querylearn-t17b-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	mgr := session.NewManager(session.Config{Shards: 16, Journal: st})
	h := server.New(mgr).Handler()
	s, err := mgr.Create("join", svcJoinTask, session.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	q, ok, err := s.Question()
	if err != nil || !ok {
		b.Fatalf("no first question: ok=%v err=%v", ok, err)
	}
	// Eight copies of one truthful label: consistent on every repeat, and
	// big enough that per-item encode cost shows over fixed overhead.
	batch := make([]api.Answer, 8)
	for i := range batch {
		batch[i] = api.Answer{Item: q.Item, Positive: t12Oracle(q.Item)}
	}
	body, err := json.Marshal(api.AnswersRequest{Answers: batch})
	if err != nil {
		b.Fatal(err)
	}
	url := "/v1/sessions/" + s.ID() + "/answers"
	req, err := http.NewRequest("POST", url, nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	w := &nullResponseWriter{hdr: make(http.Header)}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Body = io.NopCloser(bytes.NewReader(body))
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("POST answers = %d", w.code)
		}
	}
	b.StopTimer()
}
