package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"querylearn/internal/fault"
	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// doRaw issues a request and returns the raw response for header checks.
func doRaw(t *testing.T, c *client, method, path string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	must(t, err)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	must(t, err)
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestAdmissionShedsWith429: a request past the per-shard in-flight budget
// is rejected up front with 429 "overloaded", a Retry-After hint, and a
// bump of the shed counter; the admitted request is unaffected.
func TestAdmissionShedsWith429(t *testing.T) {
	reg := fault.NewRegistry()
	mgr := session.NewManager(session.Config{})
	ts := httptest.NewServer(New(mgr, WithAdmission(1, 1), WithFaults(reg)).Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id := c.create("join", joinTask)

	// Hold the single slot: the next status request sleeps 300ms inside the
	// admission scope.
	must(t, reg.Arm(PointRequest, fault.Spec{Mode: fault.ModeLatency, Delay: 300 * time.Millisecond, Times: 1}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := doRaw(t, c, "GET", "/v1/sessions/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow admitted request = HTTP %d", resp.StatusCode)
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request take the slot

	resp := doRaw(t, c, "GET", "/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get(api.RetryAfterHeader) == "" {
		t.Error("429 without a Retry-After header")
	}
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	must(t, json.NewDecoder(resp.Body).Decode(&e))
	if e.Error.Code != api.CodeOverloaded {
		t.Errorf("shed code = %q, want %q", e.Error.Code, api.CodeOverloaded)
	}
	wg.Wait()

	// /metrics and /healthz bypass admission — they must answer even while
	// the budget is spent — and report the shed.
	exp := c.scrape("")
	if v, ok := exp.Value(obs.SeriesKey("querylearn_http_shed_total",
		map[string]string{"endpoint": "status"})); !ok || v != 1 {
		t.Errorf("status shed = %v (present=%v), want 1", v, ok)
	}
	if v, ok := exp.Value("querylearn_faults_injected"); !ok || v != 1 {
		t.Errorf("faults injected = %v (present=%v), want 1", v, ok)
	}
}

// TestDrainRejectsNewSessions: after Drain, creates and resumes are shed
// with 503 "overloaded" while the existing dialogue keeps working.
func TestDrainRejectsNewSessions(t *testing.T) {
	mgr := session.NewManager(session.Config{})
	srv := New(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	id := c.create("join", joinTask)

	srv.Drain()
	body, _ := json.Marshal(map[string]any{"model": "join", "task": joinTask})
	resp := doRaw(t, c, "POST", "/v1/sessions", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(api.RetryAfterHeader) == "" {
		t.Error("drained 503 without a Retry-After header")
	}
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	must(t, json.NewDecoder(resp.Body).Decode(&e))
	if e.Error.Code != api.CodeOverloaded {
		t.Errorf("drain code = %q, want %q", e.Error.Code, api.CodeOverloaded)
	}

	// The in-flight dialogue is not cut off mid-conversation.
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, nil)
	c.do("GET", "/healthz", nil, http.StatusOK, nil)
}

// TestDegradedModeOverV1 is the degraded-mode integration contract: with the
// journal's writes failing, mutations 503 while status/question/query/
// snapshot keep answering 200 (flagged degraded), /healthz reports the
// reason and since-timestamp, and once the fault clears the background probe
// heals the store within its interval — after which mutations succeed again.
func TestDegradedModeOverV1(t *testing.T) {
	reg := fault.NewRegistry()
	oreg := obs.NewRegistry()
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff, Faults: reg, Obs: oreg})
	must(t, err)
	t.Cleanup(func() { st.Close() })
	mgr := session.NewManager(session.Config{Journal: st})
	ts := httptest.NewServer(New(mgr, WithObs(oreg), WithStore(st.Stats), WithFaults(reg)).Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	probeDone := mgr.StartJournalProbe(ctx, 20*time.Millisecond, 40*time.Millisecond)
	t.Cleanup(func() { cancel(); <-probeDone })

	id := c.create("join", joinTask)
	var qr struct {
		Question *session.Question `json:"question"`
	}
	c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, &qr)

	// The disk goes dark: appends fail, and compaction attempts fail too,
	// so the probe cannot heal until the fault clears.
	must(t, reg.ArmSpec("store.append=error,store.compact.write=error"))

	answer, _ := json.Marshal(map[string]any{
		"answers": []map[string]any{{"item": qr.Question.Item, "positive": true}},
	})
	resp := doRaw(t, c, "POST", "/v1/sessions/"+id+"/answers", answer)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation on degraded journal = HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(api.RetryAfterHeader) == "" {
		t.Error("journal 503 without a Retry-After header")
	}

	// Reads still answer 200, flagged degraded.
	for _, path := range []string{
		"/v1/sessions/" + id,
		"/v1/sessions/" + id + "/question",
		"/v1/sessions/" + id + "/query",
		"/v1/sessions/" + id + "/snapshot",
	} {
		resp := doRaw(t, c, "GET", path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded read %s = HTTP %d, want 200", path, resp.StatusCode)
		}
		if resp.Header.Get(api.DegradedHeader) != "true" {
			t.Errorf("degraded read %s missing %s header", path, api.DegradedHeader)
		}
	}

	// /healthz: 200 "degraded" with reason and since — the process is alive
	// and serving; only durability is gone.
	var health healthResponse
	c.do("GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "degraded" || health.Degraded == nil {
		t.Fatalf("degraded healthz = %+v", health)
	}
	if health.Degraded.Reason == "" || health.Degraded.Since.IsZero() {
		t.Errorf("degraded block lacks reason/since: %+v", health.Degraded)
	}
	exp := c.scrape("")
	if v, ok := exp.Value("querylearn_store_degraded"); !ok || v != 1 {
		t.Errorf("store degraded gauge = %v (present=%v), want 1", v, ok)
	}
	if v, ok := exp.Value("querylearn_faults_injected"); !ok || v == 0 {
		t.Errorf("faults injected = %v (present=%v), want > 0", v, ok)
	}

	// The disk comes back: the probe's next compaction heals the store.
	reg.DisarmAll()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health healthResponse
		c.do("GET", "/healthz", nil, http.StatusOK, &health)
		if health.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never healed; healthz = %+v", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Mutations work again, and the un-degraded response drops the flag.
	resp = doRaw(t, c, "POST", "/v1/sessions/"+id+"/answers", answer)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation after heal = HTTP %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(api.DegradedHeader) != "" {
		t.Error("healed response still carries the degraded header")
	}
	if mgr.JournalHeals() == 0 {
		t.Error("probe heal not counted")
	}
}

// TestQuestionsClampUnderPressure exercises the Propose(k) clamp directly:
// once a shard has half its budget in flight, large batches shrink to
// clampK.
func TestQuestionsClampUnderPressure(t *testing.T) {
	s := New(session.NewManager(session.Config{}), WithAdmission(4, 1))
	r := httptest.NewRequest("GET", "/v1/sessions/x/questions?n=32", nil)
	r.SetPathValue("id", "x")
	if got := s.clampN(r, 32); got != 32 {
		t.Errorf("unloaded clamp = %d, want 32", got)
	}
	s.adm.shard("x").Store(2) // half the budget in flight
	if got := s.clampN(r, 32); got != clampK {
		t.Errorf("pressured clamp = %d, want %d", got, clampK)
	}
	if got := s.clampN(r, 2); got != 2 {
		t.Errorf("small batch clamped: %d", got)
	}
}
