package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

var replayTasks = map[string]string{
	"twig": `
doc <lib><book><title/><year/></book><book><title/></book></lib>
doc <lib><book><year/><title/></book></lib>
pos 0 /0/0
pos 1 /0/1
neg 0 /1/0
`,
	"join": `
left P id,city
lrow 1,lille
lrow 2,paris
right O buyer,place
rrow 1,lille
rrow 2,rome
pos 0 0
neg 0 1
`,
	"path": `
edge lille highway paris
edge paris highway lyon
edge lille ferry dover
pos lille lyon
neg lille dover
`,
	"schema": `
doc <r><a/><b/></r>
doc <r><a/><a/><b/></r>
`,
}

// TestReplayAllModels runs the end-to-end driver: for each model, the
// interactive dialogue over HTTP must converge and re-learn the goal the
// batch learner extracts from the full task.
func TestReplayAllModels(t *testing.T) {
	wantLearned := map[string]string{
		"twig":   "learned over HTTP: /lib/book[year]/title",
		"join":   "learned over HTTP: city=place & id=buyer",
		"path":   "learned over HTTP: highway.highway",
		"schema": "r -> a+ || b",
	}
	for model, task := range replayTasks {
		path := filepath.Join(t.TempDir(), model+".txt")
		if err := os.WriteFile(path, []byte(task), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run([]string{"replay", model, path}, &out); err != nil {
			t.Fatalf("replay %s: %v\n%s", model, err, out.String())
		}
		transcript := out.String()
		if !strings.Contains(transcript, "converged after") {
			t.Errorf("%s transcript missing convergence line:\n%s", model, transcript)
		}
		if !strings.Contains(transcript, wantLearned[model]) {
			t.Errorf("%s transcript missing %q:\n%s", model, wantLearned[model], transcript)
		}
		// The learned hypothesis must equal the batch goal: every
		// transcript prints both lines, so normalize and compare.
		goal := section(transcript, "goal (batch-learned in-process):", "Q1 ")
		learned := section(transcript, "learned over HTTP:", "\x00")
		if strings.TrimSpace(goal) != strings.TrimSpace(learned) {
			t.Errorf("%s: goal %q != learned %q", model, goal, learned)
		}
	}
}

// section extracts the text between a marker line and the next marker (or
// the end for "\x00").
func section(s, from, to string) string {
	_, rest, ok := strings.Cut(s, from)
	if !ok {
		return ""
	}
	if to != "\x00" {
		if cut, _, ok2 := strings.Cut(rest, to); ok2 {
			return cut
		}
	}
	return rest
}

// TestDaemonKillRecovery is the acceptance scenario for the durable store: a
// daemon started with a data dir, killed without any shutdown (SIGKILL
// leaves no chance to flush or compact) mid-dialogue, and restarted over the
// same directory serves the same session id with byte-identical snapshot
// and hypothesis documents.
func TestDaemonKillRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := session.Config{CostPerHIT: 0.25}
	sc := storeConfig{dataDir: dir, fsync: store.FsyncOff}

	mgr, st, err := openManager(cfg, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(mgr, server.WithStore(st.Stats)).Handler())

	// Start a dialogue and answer one question over the wire, through the
	// public SDK (the supported client surface).
	ctx := context.Background()
	sdk := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	created, err := sdk.Create(ctx, api.CreateRequest{Model: "join", Task: replayTasks["join"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.Answers(ctx, created.ID, []api.Answer{
		{Item: json.RawMessage(`{"left":1,"right":1}`), Positive: false},
	}, api.ReconcileNone); err != nil {
		t.Fatal(err)
	}
	wantSnap := httpGet(t, ts, "/v1/sessions/"+created.ID+"/snapshot")
	wantHyp := httpGet(t, ts, "/v1/sessions/"+created.ID+"/query")

	// SIGKILL: the server vanishes, the store never flushes, compacts, or
	// closes; the OS releases its directory lock.
	ts.Close()
	st.Abandon()

	mgr2, st2, err := openManager(cfg, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := httptest.NewServer(server.New(mgr2, server.WithStore(st2.Stats)).Handler())
	defer ts2.Close()

	if got := httpGet(t, ts2, "/v1/sessions/"+created.ID+"/snapshot"); got != wantSnap {
		t.Errorf("snapshot diverged across kill/restart:\n got %s\nwant %s", got, wantSnap)
	}
	if got := httpGet(t, ts2, "/v1/sessions/"+created.ID+"/query"); got != wantHyp {
		t.Errorf("hypothesis diverged across kill/restart:\n got %s\nwant %s", got, wantHyp)
	}

	// The restarted daemon reports its recovery in /healthz and /metrics.
	var health struct {
		Status string `json:"status"`
		Store  *struct {
			Fsync      string `json:"fsync"`
			JournalLag int64  `json:"journal_lag"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, ts2, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Store == nil || health.Store.Fsync != store.FsyncOff {
		t.Errorf("healthz = %+v", health)
	}
	exp, err := obs.ParseExposition(strings.NewReader(httpGet(t, ts2, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("querylearn_store_recovered_sessions"); !ok || v != 1 {
		t.Errorf("recovered sessions gauge = %v (present=%v), want 1", v, ok)
	}
}

func httpGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.String()
}

func TestHardenServerTimeouts(t *testing.T) {
	srv := hardenServer(&http.Server{})
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("hardenServer left a zero timeout: %+v", srv)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"replay", "twig"}, &out); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("short replay args = %v", err)
	}
	if err := run([]string{"replay", "nope", "/does/not/exist"}, &out); err == nil {
		t.Errorf("missing file should fail")
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	os.WriteFile(path, []byte(replayTasks["twig"]), 0o644)
	if err := run([]string{"replay", "nope", path}, &out); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown model = %v", err)
	}
	if err := run([]string{"-bad-flag"}, &out); err == nil {
		t.Errorf("bad flag should fail")
	}
}
