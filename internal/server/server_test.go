package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"querylearn/internal/core"
	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/obs"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/internal/twiglearn"
)

const (
	twigTask = `
doc <lib><book><title/><year/></book><book><title/></book></lib>
doc <lib><book><year/><title/></book></lib>
pos 0 /0/0
`
	joinTask = `
left P id,city
lrow 1,lille
lrow 2,paris
right O buyer,place
rrow 1,lille
rrow 2,rome
`
	pathTask = `
edge lille highway paris
edge paris highway lyon
edge lille ferry dover
pos lille lyon
`
	schemaTask = `
doc <r><a/><b/></r>
doc <r><a/><a/><b/></r>
`
)

var taskByModel = map[string]string{
	"twig": twigTask, "join": joinTask, "path": pathTask, "schema": schemaTask,
}

// oracleByModel answers wire items for the fixed goals of the fixtures.
func oracleByModel(t *testing.T) map[string]func(json.RawMessage) bool {
	t.Helper()
	return map[string]func(json.RawMessage) bool{
		"twig": func(item json.RawMessage) bool {
			var it struct {
				Doc  int    `json:"doc"`
				Path string `json:"path"`
			}
			must(t, json.Unmarshal(item, &it))
			return it.Doc == 0 && it.Path == "/0/0" || it.Doc == 1 && it.Path == "/0/1"
		},
		"join": func(item json.RawMessage) bool {
			var it struct{ Left, Right int }
			must(t, json.Unmarshal(item, &it))
			return it.Left == 0 && it.Right == 0
		},
		"path": func(item json.RawMessage) bool {
			var it struct{ Src, Dst string }
			must(t, json.Unmarshal(item, &it))
			return it.Src == "lille" && it.Dst == "lyon"
		},
		"schema": func(item json.RawMessage) bool {
			var it struct{ Doc string }
			must(t, json.Unmarshal(item, &it))
			return strings.Count(it.Doc, "<a/>") >= 1 && strings.Count(it.Doc, "<b/>") == 1
		},
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// client is a minimal typed wrapper over the JSON API for tests.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func newTestServer(t *testing.T, cfg session.Config) (*client, *session.Manager) {
	t.Helper()
	mgr := session.NewManager(cfg)
	ts := httptest.NewServer(New(mgr).Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, http: ts.Client()}, mgr
}

func (c *client) do(method, path string, body any, wantStatus int, into any) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		must(c.t, err)
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	must(c.t, err)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	must(c.t, err)
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		c.t.Fatalf("%s %s: HTTP %d (want %d): %s", method, path, resp.StatusCode, wantStatus, raw.String())
	}
	if into != nil {
		must(c.t, json.NewDecoder(resp.Body).Decode(into))
	}
}

func (c *client) create(model, task string) string {
	var out struct{ ID string }
	c.do("POST", "/v1/sessions", map[string]any{"model": model, "task": task}, http.StatusCreated, &out)
	if out.ID == "" {
		c.t.Fatal("create returned empty id")
	}
	return out.ID
}

// converge drives a session's dialogue over HTTP until done, returning the
// hypothesis and question count.
func (c *client) converge(id string, oracle func(json.RawMessage) bool) (session.Hypothesis, int) {
	questions := 0
	for {
		var qr struct {
			Done     bool              `json:"done"`
			Question *session.Question `json:"question"`
		}
		c.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, &qr)
		if qr.Done {
			break
		}
		questions++
		if questions > 500 {
			c.t.Fatalf("session %s did not converge over HTTP", id)
		}
		c.do("POST", "/v1/sessions/"+id+"/answers", map[string]any{
			"answers": []map[string]any{{"item": qr.Question.Item, "positive": oracle(qr.Question.Item)}},
		}, http.StatusOK, nil)
	}
	var h session.Hypothesis
	c.do("GET", "/v1/sessions/"+id+"/query", nil, http.StatusOK, &h)
	return h, questions
}

// inProcessResult runs the equivalent in-process interactive loop — the same
// ask-first-informative policy the service uses — on the model's native
// session (the session learner for schema), and returns what it learns.
func inProcessResult(t *testing.T, model string, oracle func(json.RawMessage) bool) string {
	t.Helper()
	switch model {
	case "twig":
		task, err := core.ParseTwigTask(twigTask)
		must(t, err)
		sess, err := twiglearn.NewTwigSession(task.Docs, 0, task.Examples[0].Node, twiglearn.DefaultOptions())
		must(t, err)
		for inf := sess.Informative(); len(inf) > 0; inf = sess.Informative() {
			item, _ := json.Marshal(map[string]any{"doc": inf[0].Doc, "path": core.NodePathOf(inf[0].Node)})
			must(t, sess.Record(inf[0], oracle(item)))
		}
		return sess.Hypothesis().String()
	case "join":
		task, err := core.ParseJoinTask(joinTask)
		must(t, err)
		u := rellearn.NewUniverse(task.Left, task.Right)
		sess := rellearn.NewSession(u)
		for cands, _ := sess.CandidatesLimited(0); len(cands) > 0; cands, _ = sess.CandidatesLimited(0) {
			item, _ := json.Marshal(map[string]any{"left": cands[0].Left, "right": cands[0].Right})
			must(t, sess.Record(cands[0].Left, cands[0].Right, oracle(item)))
		}
		var parts []string
		for _, p := range relational.SortPairs(u.Decode(sess.Result())) {
			parts = append(parts, p.String())
		}
		return strings.Join(parts, " & ")
	case "path":
		task, err := core.ParsePathTask(pathTask)
		must(t, err)
		g := task.Graph
		seed := graph.Pair{Src: task.Examples[0].Src, Dst: task.Examples[0].Dst}
		sess, err := graphlearn.NewSession(g, seed, graphlearn.DefaultPool(g, 5, 2000))
		must(t, err)
		for inf, _ := sess.InformativeScan(0); len(inf) > 0; inf, _ = sess.InformativeScan(0) {
			item, _ := json.Marshal(map[string]any{"src": g.Node(inf[0].Src), "dst": g.Node(inf[0].Dst)})
			must(t, sess.Record(inf[0], oracle(item)))
		}
		return sess.Result().String()
	case "schema":
		l, err := session.NewLimited("schema", schemaTask, session.Limits{})
		must(t, err)
		for {
			qs, err := l.Propose(1)
			must(t, err)
			if len(qs) == 0 {
				break
			}
			must(t, l.Record(qs[0].Item, oracle(qs[0].Item)))
		}
		h, err := l.Hypothesis()
		must(t, err)
		return h.Query
	}
	t.Fatalf("unknown model %s", model)
	return ""
}

// TestEndToEndAllModels is the acceptance run: a full interactive session
// for each of the four models over HTTP learns the same query the
// in-process interactive loop learns, and for join and path that query is
// the oracle's goal.
func TestEndToEndAllModels(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	orcs := oracleByModel(t)
	goals := map[string]string{"join": "city=place & id=buyer", "path": "highway.highway"}
	for model, task := range taskByModel {
		id := c.create(model, task)
		gotHTTP, questions := c.converge(id, orcs[model])
		if !gotHTTP.Converged {
			t.Errorf("%s: hypothesis not converged", model)
		}
		want := inProcessResult(t, model, orcs[model])
		if gotHTTP.Query != want {
			t.Errorf("%s: HTTP learned %q, in-process loop learned %q", model, gotHTTP.Query, want)
		}
		if goal, ok := goals[model]; ok && want != goal {
			t.Errorf("%s: in-process loop learned %q, want the oracle's goal %q", model, want, goal)
		}
		if questions == 0 {
			t.Errorf("%s: no questions asked over HTTP", model)
		}
		c.do("DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
	}
}

// TestConcurrentSessionsOverHTTP drives 120 full dialogues in parallel —
// run under -race, this is the acceptance concurrency check.
func TestConcurrentSessionsOverHTTP(t *testing.T) {
	c, mgr := newTestServer(t, session.Config{Shards: 8})
	orcs := oracleByModel(t)
	models := session.Models
	want := map[string]string{}
	for _, m := range models {
		want[m] = inProcessResult(t, m, orcs[m])
	}
	const n = 120
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := models[i%len(models)]
			id := c.create(model, taskByModel[model])
			h, _ := c.converge(id, orcs[model])
			if h.Query != want[model] {
				errc <- fmt.Errorf("session %d (%s) learned %q, want %q", i, model, h.Query, want[model])
				return
			}
			c.do("DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if mgr.Len() != 0 {
		t.Errorf("%d sessions leaked", mgr.Len())
	}
	exp := c.scrape("")
	created, _ := exp.Value("querylearn_sessions_created")
	deleted, _ := exp.Value("querylearn_sessions_deleted")
	if created != n || deleted != n {
		t.Errorf("metrics created=%v deleted=%v, want %d of each", created, deleted, n)
	}
}

func TestStructuredErrors(t *testing.T) {
	c, _ := newTestServer(t, session.Config{MaxSessions: 1, CostPerHIT: 1})
	type apiErr struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}

	var e apiErr
	c.do("GET", "/v1/sessions/missing/question", nil, http.StatusNotFound, &e)
	if e.Error.Code != "session_not_found" {
		t.Errorf("code = %q", e.Error.Code)
	}
	c.do("POST", "/v1/sessions", map[string]any{"model": "nope", "task": "x"}, http.StatusBadRequest, &e)
	if e.Error.Code != "bad_request" {
		t.Errorf("bad model code = %q", e.Error.Code)
	}

	id := c.create("join", joinTask)
	c.do("POST", "/v1/sessions", map[string]any{"model": "join", "task": joinTask}, http.StatusTooManyRequests, &e)
	if e.Error.Code != "too_many_sessions" {
		t.Errorf("cap code = %q", e.Error.Code)
	}

	// Budget: the session was created without a cap; recreate with one.
	c.do("DELETE", "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
	var created struct{ ID string }
	c.do("POST", "/v1/sessions", map[string]any{"model": "join", "task": joinTask, "max_cost": 1.5},
		http.StatusCreated, &created)
	item := json.RawMessage(`{"left":0,"right":0}`)
	c.do("POST", "/v1/sessions/"+created.ID+"/answers", map[string]any{
		"answers": []map[string]any{
			{"item": item, "positive": true},
			{"item": item, "positive": true},
		},
	}, http.StatusPaymentRequired, &e)
	if e.Error.Code != "budget_exhausted" {
		t.Errorf("budget code = %q", e.Error.Code)
	}

	// Inconsistent answers mark the session failed (409 conflict); use an
	// uncapped session so the budget doesn't interfere.
	c.do("DELETE", "/v1/sessions/"+created.ID, nil, http.StatusNoContent, nil)
	uncapped := c.create("join", joinTask)
	c.do("POST", "/v1/sessions/"+uncapped+"/answers", map[string]any{
		"answers": []map[string]any{{"item": item, "positive": false}},
	}, http.StatusOK, nil)
	c.do("POST", "/v1/sessions/"+uncapped+"/answers", map[string]any{
		"answers": []map[string]any{{"item": item, "positive": true}},
	}, http.StatusConflict, &e)
	if e.Error.Code != "session_failed" {
		t.Errorf("failed code = %q", e.Error.Code)
	}

	// Error counters moved.
	exp := c.scrape("")
	var answerErrs float64
	for _, code := range []string{"budget_exhausted", "session_failed"} {
		v, _ := exp.Value(obs.SeriesKey("querylearn_http_errors_total",
			map[string]string{"endpoint": "answers", "code": code}))
		answerErrs += v
	}
	if answerErrs < 2 {
		t.Errorf("answers endpoint errors = %v, want >= 2", answerErrs)
	}
	if v, _ := exp.Value(obs.SeriesKey("querylearn_http_requests_total",
		map[string]string{"endpoint": "create"})); v < 3 {
		t.Errorf("create endpoint requests = %v, want >= 3", v)
	}
}

func TestMajorityReconciliationOverHTTP(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	id := c.create("join", joinTask)
	item := json.RawMessage(`{"left":0,"right":0}`)
	var res session.AnswerResult
	c.do("POST", "/v1/sessions/"+id+"/answers", map[string]any{
		"reconcile": "majority",
		"answers": []map[string]any{
			{"item": item, "positive": true},
			{"item": item, "positive": false},
			{"item": item, "positive": true},
		},
	}, http.StatusOK, &res)
	if res.Applied != 1 || res.HITs != 3 {
		t.Errorf("majority result = %+v", res)
	}
	var st session.Status
	c.do("GET", "/v1/sessions/"+id, nil, http.StatusOK, &st)
	if st.Failed != "" {
		t.Errorf("majority vote corrupted the session: %+v", st)
	}
}

// TestSnapshotResumeOverHTTP persists a mid-dialogue session through the API
// and finishes it in a second server process.
func TestSnapshotResumeOverHTTP(t *testing.T) {
	orcs := oracleByModel(t)
	c1, _ := newTestServer(t, session.Config{})
	id := c1.create("twig", twigTask)

	// Answer exactly one question, then snapshot.
	var qr struct {
		Done     bool              `json:"done"`
		Question *session.Question `json:"question"`
	}
	c1.do("GET", "/v1/sessions/"+id+"/question", nil, http.StatusOK, &qr)
	if qr.Done {
		t.Fatal("twig session converged immediately")
	}
	c1.do("POST", "/v1/sessions/"+id+"/answers", map[string]any{
		"answers": []map[string]any{{"item": qr.Question.Item, "positive": orcs["twig"](qr.Question.Item)}},
	}, http.StatusOK, nil)
	var snap session.Snapshot
	c1.do("GET", "/v1/sessions/"+id+"/snapshot", nil, http.StatusOK, &snap)
	if snap.ID != id || len(snap.Answers) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Rehydrate on a fresh server, finish the dialogue there.
	c2, _ := newTestServer(t, session.Config{})
	var resumed struct{ ID string }
	c2.do("POST", "/v1/sessions/resume", snap, http.StatusCreated, &resumed)
	if resumed.ID != id {
		t.Fatalf("resume changed id: %q", resumed.ID)
	}
	h, _ := c2.converge(id, orcs["twig"])
	if want := inProcessResult(t, "twig", orcs["twig"]); h.Query != want {
		t.Errorf("resumed dialogue learned %q, want %q", h.Query, want)
	}

	// Resuming over a live id conflicts.
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	c2.do("POST", "/v1/sessions/resume", snap, http.StatusConflict, &e)
	if e.Error.Code != "session_exists" {
		t.Errorf("conflict code = %q", e.Error.Code)
	}
}

func TestHealthz(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	var out map[string]any
	c.do("GET", "/healthz", nil, http.StatusOK, &out)
	if out["status"] != "ok" {
		t.Errorf("healthz = %v", out)
	}
	if _, present := out["store"]; present {
		t.Errorf("in-memory healthz leaked a store block: %v", out)
	}
}

// TestStoreStatusBlocks: with a durable store wired in, /metrics grows the
// store stats gauges and /healthz reports journal lag and compaction stats.
func TestStoreStatusBlocks(t *testing.T) {
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: store.FsyncOff})
	must(t, err)
	t.Cleanup(func() { st.Close() })
	mgr := session.NewManager(session.Config{Journal: st})
	ts := httptest.NewServer(New(mgr, WithStore(st.Stats)).Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	id := c.create("join", joinTask)
	if v, ok := c.scrape("").Value("querylearn_store_events_appended"); !ok || v == 0 {
		t.Fatalf("store events appended = %v (present=%v), want > 0", v, ok)
	}
	must(t, mgr.Delete(id))
	if _, err := mgr.Compact(); err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	c.do("GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Store == nil {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Store.TailEvents != 0 || health.Store.LastCompaction == nil {
		t.Errorf("healthz store block missed the compaction: %+v", health.Store)
	}
}
