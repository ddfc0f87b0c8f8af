package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/session"
	"querylearn/internal/store"
)

// t12Oracle answers the join fixture's questions truthfully for the goal
// id=buyer & city=place.
func t12Oracle(item json.RawMessage) bool {
	var it struct{ Left, Right int }
	if json.Unmarshal(item, &it) != nil {
		return false
	}
	return it.Left == 0 && it.Right == 0
}

// T12Durability measures what the write-ahead journal costs and what it
// buys: interactive answer throughput under each fsync mode against the
// in-memory manager, recovery time as a function of journal length, and
// the first-touch cost recovery defers to each session's first question.
func T12Durability(scale int) *Table {
	t := &Table{
		ID:     "T12",
		Title:  "durable session store: journal cost and recovery time",
		Claim:  "batched group-commit fsync keeps answers/s within 2x of the in-memory path; recovery registers journaled sessions at boot and builds each on first touch",
		Header: []string{"phase", "mode", "sessions", "events", "elapsed ms", "throughput"},
	}
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	if workers < 2 {
		workers = 2
	}
	perWorker := 50 * scale

	var memRate float64
	for _, mode := range []string{"memory", store.FsyncOff, store.FsyncBatched, store.FsyncAlways} {
		sessions, answers, events, elapsed, err := t12Ingest(mode, workers, perWorker)
		if err != nil {
			t.Rows = append(t.Rows, []string{"ingest", mode, "ERROR", err.Error(), "", ""})
			continue
		}
		rate := float64(answers) / elapsed.Seconds()
		suffix := ""
		if mode == "memory" {
			memRate = rate
		} else if memRate > 0 {
			suffix = fmt.Sprintf(" (%.2fx memory)", memRate/rate)
		}
		t.Rows = append(t.Rows, []string{
			"ingest", mode, fmt.Sprint(sessions), fmt.Sprint(events),
			fmt.Sprintf("%.1f", elapsed.Seconds()*1000),
			fmt.Sprintf("%.0f answers/s%s", rate, suffix),
		})
	}

	for _, target := range []int64{int64(250 * scale), int64(1000 * scale), int64(4000 * scale)} {
		sessions, events, boot, touch, err := t12Recovery(target)
		for _, phase := range []struct {
			name    string
			elapsed time.Duration
		}{{"recover", boot}, {"first touch", touch}} {
			if err != nil {
				t.Rows = append(t.Rows, []string{phase.name, store.FsyncOff, "ERROR", err.Error(), "", ""})
				continue
			}
			t.Rows = append(t.Rows, []string{
				phase.name, store.FsyncOff, fmt.Sprint(sessions), fmt.Sprint(events),
				fmt.Sprintf("%.1f", phase.elapsed.Seconds()*1000),
				fmt.Sprintf("%.0f sessions/s", float64(sessions)/phase.elapsed.Seconds()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"ingest: concurrent workers run full join dialogues (create, answer to convergence, delete) against the manager",
		"the (Nx memory) suffix is the slowdown vs the nil-journal manager — the acceptance bound for batched is 2x",
		"recover: store.Open replays the journal and Manager.Recover registers every live session cold, building no learner (uncompacted log, ~5 events/session)",
		"first touch: one Question per recovered session builds its learner and replays its answers — the work recovery leaves to each session's first use",
	)
	return t
}

// t12Ingest runs the interactive workload under one journal mode and reports
// sessions and answers completed plus journal events appended.
func t12Ingest(mode string, workers, perWorker int) (sessions, answers int, events int64, elapsed time.Duration, err error) {
	cfg := session.Config{Shards: 16}
	var st *store.Store
	if mode != "memory" {
		dir, derr := os.MkdirTemp("", "querylearn-t12-")
		if derr != nil {
			return 0, 0, 0, 0, derr
		}
		defer os.RemoveAll(dir)
		var oerr error
		st, _, oerr = store.Open(dir, store.Options{Fsync: mode})
		if oerr != nil {
			return 0, 0, 0, 0, oerr
		}
		defer st.Close()
		cfg.Journal = st
	}
	mgr := session.NewManager(cfg)

	var answered atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n, err := t12Dialogue(mgr)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				answered.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	if e := firstErr.Load(); e != nil {
		return 0, 0, 0, 0, e.(error)
	}
	if st != nil {
		events = st.Stats().Appended
	}
	return workers * perWorker, int(answered.Load()), events, elapsed, nil
}

// t12Dialogue is one full create→answer→delete join dialogue.
func t12Dialogue(mgr *session.Manager) (int, error) {
	s, err := mgr.Create("join", svcJoinTask, session.CreateOptions{})
	if err != nil {
		return 0, err
	}
	answers := 0
	for {
		q, ok, err := s.Question()
		if err != nil {
			return answers, err
		}
		if !ok {
			break
		}
		if _, err := s.Answer([]session.Answer{
			{Item: q.Item, Positive: t12Oracle(q.Item)},
		}, session.ReconcileNone); err != nil {
			return answers, err
		}
		answers++
	}
	return answers, mgr.Delete(s.ID())
}

// t12Recovery builds an uncompacted journal of at least target events (live
// sessions with their answer tails), then measures a cold Open+Recover
// (boot) and one Question on every recovered session (touch).
func t12Recovery(target int64) (sessions int, events int64, boot, touch time.Duration, err error) {
	dir, err := os.MkdirTemp("", "querylearn-t12rec-")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	mgr := session.NewManager(session.Config{Shards: 16, Journal: st})
	for st.Stats().Appended < target {
		s, cerr := mgr.Create("join", svcJoinTask, session.CreateOptions{})
		if cerr != nil {
			return 0, 0, 0, 0, cerr
		}
		for {
			q, ok, qerr := s.Question()
			if qerr != nil {
				return 0, 0, 0, 0, qerr
			}
			if !ok {
				break
			}
			if _, aerr := s.Answer([]session.Answer{
				{Item: q.Item, Positive: t12Oracle(q.Item)},
			}, session.ReconcileNone); aerr != nil {
				return 0, 0, 0, 0, aerr
			}
		}
	}
	events = st.Stats().Appended
	// Die without flushing — the crash. Every record is already in the OS,
	// so a cold open sees the full journal.
	st.Abandon()
	start := time.Now()
	st2, snaps, err := store.Open(dir, store.Options{Fsync: store.FsyncOff})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer st2.Close()
	mgr2 := session.NewManager(session.Config{Shards: 16, Journal: st2})
	n, err := mgr2.Recover(snaps)
	boot = time.Since(start)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	start = time.Now()
	for _, snap := range snaps {
		s, gerr := mgr2.Get(snap.ID)
		if gerr != nil {
			return 0, 0, 0, 0, gerr
		}
		if _, _, qerr := s.Question(); qerr != nil {
			return 0, 0, 0, 0, qerr
		}
	}
	return n, events, boot, time.Since(start), nil
}
