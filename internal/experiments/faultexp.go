package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"querylearn/internal/fault"
	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
)

// T15FaultAvailability measures what the robustness layer buys: with the
// journal's disk injected dead, reads keep answering 200 (flagged degraded)
// while mutations are rejected cleanly with 503; once the fault clears, the
// background probe heals the store by compaction and mutations recover —
// and the time-to-heal is bounded by the probe's backoff. A final phase
// injects request-level faults at a fixed probability and checks the
// served fraction tracks it.
func T15FaultAvailability(scale int) *Table {
	t := &Table{
		ID:     "T15",
		Title:  "availability under injected faults (degraded reads, probe heal)",
		Claim:  "journal loss degrades writes, never reads: reads serve 200 throughout, mutations 503 cleanly, and the probe heals within its backoff interval",
		Header: []string{"phase", "requests", "reads 200", "mutations ok", "rejected 5xx/429", "degraded"},
	}
	rounds := 50 * scale

	dir, err := os.MkdirTemp("", "querylearn-t15-")
	if err != nil {
		return t15Error(t, err)
	}
	defer os.RemoveAll(dir)
	reg := fault.NewRegistry()
	st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncOff, Faults: reg})
	if err != nil {
		return t15Error(t, err)
	}
	defer st.Close()
	mgr := session.NewManager(session.Config{Shards: 16, Journal: st})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgr.StartJournalProbe(ctx, 5*time.Millisecond, 40*time.Millisecond)

	srv := server.New(mgr,
		server.WithStore(st.Stats),
		server.WithFaults(reg),
		server.WithAdmission(64, 16),
	)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The long-lived dialogue the read path watches throughout.
	anchor, err := mgr.Create("join", svcJoinTask, session.CreateOptions{})
	if err != nil {
		return t15Error(t, err)
	}
	readPath := "/v1/sessions/" + anchor.ID()

	var phaseHist *obs.Histogram
	status := func(method, path string) int {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(
			`{"model":"join","task":"left P id,city\nlrow 1,lille\nright O buyer,place\nrrow 1,lille\n"}`))
		if err != nil {
			return 0
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := ts.Client().Do(req)
		phaseHist.Observe(time.Since(start))
		if err != nil {
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// phase drives `rounds` read+mutation pairs and tallies the outcomes.
	// The mutation is a session create (a journaled write); successful
	// creates are deleted right away so the phases stay comparable. Each
	// phase gets its own latency histogram: rejected-cleanly must also mean
	// rejected-fast, and the quantiles in t.Latency are the evidence.
	phase := func(name string) []string {
		phaseHist = &obs.Histogram{}
		defer func() { t.Latency = append(t.Latency, latencyStat("T15 "+name, phaseHist.Snapshot())) }()
		var readsOK, mutsOK, rejected int
		for i := 0; i < rounds; i++ {
			if status(http.MethodGet, readPath) == http.StatusOK {
				readsOK++
			}
			switch code := status(http.MethodPost, "/v1/sessions"); {
			case code == http.StatusCreated || code == http.StatusOK:
				mutsOK++
			case code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests:
				rejected++
			}
		}
		_, _, degraded := st.Degraded()
		return []string{
			name, fmt.Sprint(2 * rounds),
			fmt.Sprintf("%d/%d", readsOK, rounds),
			fmt.Sprintf("%d/%d", mutsOK, rounds),
			fmt.Sprint(rejected),
			fmt.Sprint(degraded),
		}
	}

	// Successful creates pile up live sessions; sweep them between phases so
	// the anchor session is the only long-lived one.
	sweep := func() {
		list, _ := mgr.List(0, "")
		for _, s := range list {
			if s.ID != anchor.ID() {
				mgr.Delete(s.ID)
			}
		}
	}

	t.Rows = append(t.Rows, phase("healthy"))
	sweep()

	// The disk goes dark: appends fail, and so do compaction attempts, so
	// the probe cannot heal until the fault clears.
	if err := reg.ArmSpec("store.append=error,store.compact.write=error"); err != nil {
		return t15Error(t, err)
	}
	t.Rows = append(t.Rows, phase("journal dark"))

	// The disk comes back; measure the probe's time-to-heal.
	reg.DisarmAll()
	healStart := time.Now()
	deadline := healStart.Add(5 * time.Second)
	for {
		if _, _, degraded := st.Degraded(); !degraded {
			break
		}
		if time.Now().After(deadline) {
			return t15Error(t, fmt.Errorf("store never healed after disarm"))
		}
		time.Sleep(time.Millisecond)
	}
	healMS := float64(time.Since(healStart).Nanoseconds()) / 1e6
	t.Rows = append(t.Rows, phase("healed"))
	sweep()

	// Request-level chaos: every routed request fails with probability 0.2;
	// the served fraction should track 1-p on reads and mutations alike.
	if err := reg.ArmSpec("server.request=error:p=0.2:seed=7"); err != nil {
		return t15Error(t, err)
	}
	t.Rows = append(t.Rows, phase("request faults p=0.2"))
	reg.DisarmAll()

	counts := reg.Counts()
	t.Notes = append(t.Notes,
		fmt.Sprintf("probe healed the store %.1fms after the fault cleared (backoff 5ms..40ms)", healMS),
		fmt.Sprintf("injections: %d across %d registered points", reg.Injected(), len(counts)),
		"mutations = session creates (journaled writes); rejected = clean 503/429 with structured codes, never a 500",
	)
	return t
}

// t15Error reports a broken run inside the table instead of panicking the
// whole benchrunner.
func t15Error(t *Table, err error) *Table {
	t.Rows = append(t.Rows, []string{"ERROR", err.Error(), "", "", "", ""})
	return t
}
