package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// newObsServer spins a fully-wired daemon shape: shared obs registry across
// store and server, admission control, always-mode fsync so the fsync
// histograms and fsync.wait phase actually fire.
func newObsServer(t *testing.T) (*client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncAlways, Obs: reg})
	must(t, err)
	t.Cleanup(func() { st.Close() })
	mgr := session.NewManager(session.Config{Journal: st})
	ts := httptest.NewServer(New(mgr,
		WithObs(reg), WithStore(st.Stats), WithAdmission(64, 4)).Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, http: ts.Client()}, reg
}

// driveTraffic produces a little of everything: successful dialogue turns,
// a 400 (unknown model), and a 404 (missing session).
func driveTraffic(t *testing.T, c *client) {
	t.Helper()
	id := c.create("twig", twigTask)
	var qr struct {
		Done     bool              `json:"done"`
		Question *session.Question `json:"question"`
	}
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, &qr)
	if !qr.Done {
		c.do("POST", "/v1/sessions/"+id+"/answers", map[string]any{
			"answers": []map[string]any{{"item": qr.Question.Item, "positive": true}},
		}, http.StatusOK, nil)
	}
	c.do("POST", "/v1/sessions", map[string]any{"model": "nope", "task": "x"}, http.StatusBadRequest, nil)
	c.do("GET", "/v1/sessions/missing", nil, http.StatusNotFound, nil)
}

// drivePlanTraffic runs one path-model dialogue turn: building the pool
// sends the candidate membership probes through the planned evaluator
// (graph.evalpairs direction decisions), and the manager drains the session's
// plan recorder into the request trace as a "plan" phase.
func drivePlanTraffic(t *testing.T, c *client) {
	t.Helper()
	oracle := oracleByModel(t)["path"]
	id := c.create("path", pathTask)
	var qr struct {
		Done     bool              `json:"done"`
		Question *session.Question `json:"question"`
	}
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, &qr)
	if !qr.Done {
		c.do("POST", "/v1/sessions/"+id+"/answers", map[string]any{
			"answers": []map[string]any{{"item": qr.Question.Item, "positive": oracle(qr.Question.Item)}},
		}, http.StatusOK, nil)
	}
}

// The querylearn_plan_* families registered by the server must carry real
// planner activity after path traffic, lint as a valid exposition, and the
// drained planning time must surface as a "plan" entry in the shared phase
// histogram.
func TestPrometheusPlanExposition(t *testing.T) {
	c, _ := newObsServer(t)
	drivePlanTraffic(t, c)

	exp := c.scrape("")

	if exp.Types["querylearn_plan_decisions_total"] != "counter" {
		t.Error("querylearn_plan_decisions_total missing or not a counter")
	}
	if exp.Types["querylearn_plan_seconds"] != "histogram" {
		t.Error("querylearn_plan_seconds missing or not a histogram")
	}
	if v := exp.SumByName("querylearn_plan_decisions_total"); v < 1 {
		t.Errorf("plan decisions total = %v, want >= 1 after path traffic", v)
	}
	if v := exp.SumByName("querylearn_plan_seconds_count"); v < 1 {
		t.Errorf("plan seconds count = %v, want >= 1 after path traffic", v)
	}
	// The decisions carry the graph evaluator's layer label with a concrete
	// direction choice.
	fwd, fok := exp.Value(obs.SeriesKey("querylearn_plan_decisions_total",
		map[string]string{"layer": "graph.evalpairs", "choice": "forward"}))
	bwd, bok := exp.Value(obs.SeriesKey("querylearn_plan_decisions_total",
		map[string]string{"layer": "graph.evalpairs", "choice": "backward"}))
	if (!fok || fwd < 1) && (!bok || bwd < 1) {
		t.Errorf("no graph.evalpairs direction decisions recorded (forward=%v/%v backward=%v/%v)",
			fwd, fok, bwd, bok)
	}
	// Drained planner time rides the request trace into the phase histogram.
	if v, ok := exp.Value(obs.SeriesKey("querylearn_phase_seconds_count",
		map[string]string{"phase": "plan"})); !ok || v < 1 {
		t.Errorf("phase plan count = %v (present=%v), want >= 1", v, ok)
	}
}

func TestPrometheusExposition(t *testing.T) {
	c, _ := newObsServer(t)
	driveTraffic(t, c)

	exp := c.scrape("?format=prometheus")

	// Per-endpoint request histograms.
	if exp.Types["querylearn_http_request_seconds"] != "histogram" {
		t.Error("querylearn_http_request_seconds missing or not a histogram")
	}
	if v, ok := exp.Value(obs.SeriesKey("querylearn_http_request_seconds_count",
		map[string]string{"endpoint": "create", "status": "201"})); !ok || v < 1 {
		t.Errorf("create/201 latency count = %v (present=%v), want >= 1", v, ok)
	}
	// Errors labeled by stable api code.
	if v, ok := exp.Value(obs.SeriesKey("querylearn_http_errors_total",
		map[string]string{"endpoint": "status", "code": api.CodeSessionNotFound})); !ok || v != 1 {
		t.Errorf("status/session_not_found errors = %v (present=%v), want 1", v, ok)
	}
	// Store histograms and gauges from the shared registry.
	for _, name := range []string{
		"querylearn_store_append_seconds", "querylearn_store_fsync_seconds",
		"querylearn_store_fsync_batch_events",
	} {
		if exp.Types[name] != "histogram" {
			t.Errorf("%s missing or not a histogram", name)
		}
		if v := exp.SumByName(name + "_count"); v < 1 {
			t.Errorf("%s count = %v, want >= 1", name, v)
		}
	}
	if v, ok := exp.Value("querylearn_store_journal_lag"); !ok || v != 0 {
		t.Errorf("journal lag gauge = %v (present=%v), want 0 in always mode", v, ok)
	}
	if v, ok := exp.Value("querylearn_sessions_live"); !ok || v != 1 {
		t.Errorf("sessions_live = %v (present=%v), want 1", v, ok)
	}
	// Scrape-time gauges over the manager and store stats snapshots: every
	// family is present and typed gauge, and the traffic above moved them.
	for name, min := range map[string]float64{
		"querylearn_sessions_created":         1,
		"querylearn_sessions_resumed":         0,
		"querylearn_sessions_recovered":       0,
		"querylearn_sessions_deleted":         0,
		"querylearn_sessions_expired":         0,
		"querylearn_session_labels":           1,
		"querylearn_session_questions":        1,
		"querylearn_session_journal_heals":    0,
		"querylearn_session_intern_items":     1,
		"querylearn_session_intern_bytes":     1,
		"querylearn_store_events_appended":    2,
		"querylearn_store_events_durable":     2,
		"querylearn_store_fsyncs":             1,
		"querylearn_store_recovered_sessions": 0,
	} {
		if exp.Types[name] != "gauge" {
			t.Errorf("%s missing or not a gauge", name)
		}
		if v, ok := exp.Value(name); !ok || v < min {
			t.Errorf("%s = %v (present=%v), want >= %v", name, v, ok, min)
		}
	}
	// Phase histograms recorded via the request trace, down to the store.
	for _, phase := range []string{"admission.wait", "session.lock", "journal.append", "fsync.wait"} {
		if v, ok := exp.Value(obs.SeriesKey("querylearn_phase_seconds_count",
			map[string]string{"phase": phase})); !ok || v < 1 {
			t.Errorf("phase %s count = %v (present=%v), want >= 1", phase, v, ok)
		}
	}
}

// TestMetricsIgnoresFormat: /metrics has one surface. With or without a
// format parameter — including the ?format=prometheus existing scrapers send
// — it answers the same linting exposition.
func TestMetricsIgnoresFormat(t *testing.T) {
	c, _ := newObsServer(t)
	driveTraffic(t, c)
	for _, q := range []string{"", "?format=prometheus", "?format=json"} {
		exp := c.scrape(q)
		if v, ok := exp.Value("querylearn_sessions_live"); !ok || v != 1 {
			t.Errorf("/metrics%s: sessions_live = %v (present=%v), want 1", q, v, ok)
		}
	}
}

// scrape GETs /metrics with the given query string and lints the exposition.
func (c *client) scrape(query string) *obs.Exposition {
	c.t.Helper()
	resp, err := c.http.Get(c.base + "/metrics" + query)
	must(c.t, err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("/metrics%s: HTTP %d", query, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		c.t.Errorf("/metrics%s: content type %q, want %q", query, ct, obs.PrometheusContentType)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		c.t.Fatalf("/metrics%s: exposition does not lint: %v", query, err)
	}
	return exp
}

func TestRequestID(t *testing.T) {
	c, _ := newObsServer(t)

	// Server-minted: present and echoed on a plain request.
	resp, err := c.http.Get(c.base + "/healthz")
	must(t, err)
	resp.Body.Close()
	if rid := resp.Header.Get(api.RequestIDHeader); len(rid) != 32 {
		t.Errorf("server-minted request id %q, want 32 hex chars", rid)
	}

	// Client-supplied: echoed verbatim, and repeated in the error envelope.
	req, err := http.NewRequest("GET", c.base+"/v1/sessions/missing", nil)
	must(t, err)
	req.Header.Set(api.RequestIDHeader, "trace-me-42")
	resp, err = c.http.Do(req)
	must(t, err)
	defer resp.Body.Close()
	if rid := resp.Header.Get(api.RequestIDHeader); rid != "trace-me-42" {
		t.Errorf("client-supplied request id came back as %q", rid)
	}
	var er api.ErrorResponse
	must(t, json.NewDecoder(resp.Body).Decode(&er))
	if er.Error == nil || er.Error.RequestID != "trace-me-42" {
		t.Errorf("error envelope request_id = %+v, want trace-me-42", er.Error)
	}

	// Oversized ids are replaced, not reflected (header reflection hygiene).
	req, err = http.NewRequest("GET", c.base+"/healthz", nil)
	must(t, err)
	req.Header.Set(api.RequestIDHeader, strings.Repeat("x", 300))
	resp, err = c.http.Do(req)
	must(t, err)
	resp.Body.Close()
	if rid := resp.Header.Get(api.RequestIDHeader); len(rid) != 32 {
		t.Errorf("oversized request id reflected back: %q", rid)
	}
}

func TestSlowRequestLog(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	mgr := session.NewManager(session.Config{})
	// Threshold zero: every request is "slow", so one dialogue turn logs.
	ts := httptest.NewServer(New(mgr,
		WithObs(reg), WithSlowRequestLog(logger, 0, 1)).Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id := c.create("twig", twigTask)
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, nil)

	if buf.Len() == 0 {
		t.Fatal("no slow-request log emitted at threshold 0")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var logged struct {
		Msg       string  `json:"msg"`
		RequestID string  `json:"request_id"`
		Endpoint  string  `json:"endpoint"`
		Status    int     `json:"status"`
		Duration  float64 `json:"duration_seconds"`
		Phases    []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
	}
	// The question turn is the last logged request.
	must(t, json.Unmarshal([]byte(lines[len(lines)-1]), &logged))
	if logged.Msg != "slow request" || logged.Endpoint != "question" || logged.RequestID == "" {
		t.Errorf("slow log line = %+v", logged)
	}
	if logged.Status != http.StatusOK || logged.Duration < 0 {
		t.Errorf("slow log status/duration = %+v", logged)
	}
	found := false
	for _, ph := range logged.Phases {
		if ph.Name == "session.lock" || ph.Name == "learner.propose" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow log phases missing session phases: %+v", logged.Phases)
	}

	// Sampling: every=3 logs the 1st, 4th, 7th... slow request.
	buf.Reset()
	ts2 := httptest.NewServer(New(session.NewManager(session.Config{}),
		WithSlowRequestLog(logger, 0, 3)).Handler())
	t.Cleanup(ts2.Close)
	c2 := &client{t: t, base: ts2.URL, http: ts2.Client()}
	for i := 0; i < 6; i++ {
		resp, err := c2.http.Get(c2.base + "/healthz")
		must(t, err)
		resp.Body.Close()
	}
	got := strings.Count(buf.String(), "slow request")
	if got != 2 {
		t.Errorf("every=3 over 6 requests logged %d lines, want 2", got)
	}
}

// A path session's slow-log lines must attribute planner work: the create
// request (pool membership through the planned evaluator) and every later
// dialogue turn carry a "plan" phase drained from the session recorder.
func TestSlowRequestLogPlanPhase(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	mgr := session.NewManager(session.Config{})
	ts := httptest.NewServer(New(mgr,
		WithObs(reg), WithSlowRequestLog(logger, 0, 1)).Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id := c.create("path", pathTask)
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, nil)

	type logLine struct {
		Endpoint string `json:"endpoint"`
		Phases   []struct {
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		} `json:"phases"`
	}
	planPhases := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var logged logLine
		must(t, json.Unmarshal([]byte(line), &logged))
		for _, ph := range logged.Phases {
			if ph.Name == "plan" {
				if ph.Seconds < 0 {
					t.Errorf("%s: negative plan phase %v", logged.Endpoint, ph.Seconds)
				}
				planPhases[logged.Endpoint] = true
			}
		}
	}
	for _, ep := range []string{"create", "question"} {
		if !planPhases[ep] {
			t.Errorf("slow log for %s request has no plan phase (lines: %s)", ep, buf.String())
		}
	}
}
