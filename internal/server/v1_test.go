package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"querylearn/internal/cluster"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// wideTasks builds, per model, a task whose initial frontier exceeds one
// 16-question batch, mirroring the session-level batch fixtures.
func wideTasks() map[string]string {
	var tw strings.Builder
	tw.WriteString("doc <lib>")
	for i := 0; i < 20; i++ {
		tw.WriteString("<book><title/><year/></book>")
	}
	tw.WriteString("</lib>\npos 0 /0/0\n")

	var j strings.Builder
	j.WriteString("left P id,city\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&j, "lrow %d,c%d\n", i+1, i%3)
	}
	j.WriteString("right O buyer,place\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&j, "rrow %d,c%d\n", i+1, i%3)
	}

	var p strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&p, "edge n%d highway n%d\n", i, i+1)
		fmt.Fprintf(&p, "edge n%d road m%d\n", i, i)
	}
	p.WriteString("pos n0 n2\n")

	var s strings.Builder
	s.WriteString("doc <r>")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&s, "<l%d/>", i)
	}
	s.WriteString("</r>\n")

	return map[string]string{
		"twig": tw.String(), "join": j.String(), "path": p.String(), "schema": s.String(),
	}
}

// doRaw issues a request with explicit headers and returns the response.
func (c *client) doRaw(method, path string, body []byte, headers map[string]string) *http.Response {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	must(c.t, err)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	must(c.t, err)
	return resp
}

var jsonHeaders = map[string]string{"Content-Type": "application/json"}

// TestV1QuestionsBatch is the acceptance check over the wire: for all four
// models, GET /v1/sessions/{id}/questions?n=16 returns 16 pairwise-distinct
// informative items, every one of which the answers endpoint accepts.
func TestV1QuestionsBatch(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	for model, task := range wideTasks() {
		var created api.CreateResponse
		c.do("POST", "/v1/sessions", api.CreateRequest{Model: model, Task: task}, http.StatusCreated, &created)
		var qr api.QuestionsResponse
		c.do("GET", "/v1/sessions/"+created.ID+"/questions?n=16", nil, http.StatusOK, &qr)
		if qr.Done || len(qr.Questions) != 16 {
			t.Fatalf("%s: questions?n=16 returned done=%v with %d items", model, qr.Done, len(qr.Questions))
		}
		seen := map[string]bool{}
		for _, q := range qr.Questions {
			key, err := session.ItemKey(q.Item)
			must(t, err)
			if seen[key] {
				t.Errorf("%s: duplicate item in wire batch: %s", model, q.Item)
			}
			seen[key] = true
		}
		// Default n is 1.
		var one api.QuestionsResponse
		c.do("GET", "/v1/sessions/"+created.ID+"/questions", nil, http.StatusOK, &one)
		if len(one.Questions) != 1 {
			t.Errorf("%s: default n returned %d items", model, len(one.Questions))
		}
	}
}

// TestV1BatchDialogueMatchesSequential drives one session with 16-batches
// and one with singles over the wire; both must converge to the same
// hypothesis (the k-batch differential, end to end).
func TestV1BatchDialogueMatchesSequential(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	orcs := oracleByModel(t)
	task := taskByModel["join"]
	seqID := c.create("join", task)
	want, _ := c.converge(seqID, orcs["join"])

	var created api.CreateResponse
	c.do("POST", "/v1/sessions", api.CreateRequest{Model: "join", Task: task}, http.StatusCreated, &created)
	for rounds := 0; ; rounds++ {
		if rounds > 100 {
			t.Fatal("batched dialogue did not converge")
		}
		var qr api.QuestionsResponse
		c.do("GET", "/v1/sessions/"+created.ID+"/questions?n=16", nil, http.StatusOK, &qr)
		if qr.Done {
			break
		}
		answers := make([]api.Answer, len(qr.Questions))
		for i, q := range qr.Questions {
			answers[i] = api.Answer{Item: q.Item, Positive: orcs["join"](q.Item)}
		}
		c.do("POST", "/v1/sessions/"+created.ID+"/answers", api.AnswersRequest{Answers: answers}, http.StatusOK, nil)
	}
	var got api.Hypothesis
	c.do("GET", "/v1/sessions/"+created.ID+"/query", nil, http.StatusOK, &got)
	if got.Query != want.Query || !got.Converged {
		t.Errorf("batched learned %+v, sequential learned %+v", got, want)
	}
}

// TestSnapshotResumeMidBatch pins snapshot/resume equivalence in the middle
// of a dispatched batch: half the batch is answered, the session snapshotted
// and resumed on a second server, and both copies finish identically.
func TestSnapshotResumeMidBatch(t *testing.T) {
	tasks := wideTasks()
	c1, _ := newTestServer(t, session.Config{})
	var created api.CreateResponse
	c1.do("POST", "/v1/sessions", api.CreateRequest{Model: "join", Task: tasks["join"]}, http.StatusCreated, &created)

	oracle := func(item json.RawMessage) bool {
		var it struct{ Left, Right int }
		must(t, json.Unmarshal(item, &it))
		return it.Left == it.Right
	}
	var qr api.QuestionsResponse
	c1.do("GET", "/v1/sessions/"+created.ID+"/questions?n=16", nil, http.StatusOK, &qr)
	if len(qr.Questions) != 16 {
		t.Fatalf("wide join fixture produced %d questions", len(qr.Questions))
	}
	// Answer only the first half of the dispatched batch, then snapshot.
	half := make([]api.Answer, 8)
	for i, q := range qr.Questions[:8] {
		half[i] = api.Answer{Item: q.Item, Positive: oracle(q.Item)}
	}
	c1.do("POST", "/v1/sessions/"+created.ID+"/answers", api.AnswersRequest{Answers: half}, http.StatusOK, nil)
	var snap api.Snapshot
	c1.do("GET", "/v1/sessions/"+created.ID+"/snapshot", nil, http.StatusOK, &snap)

	c2, _ := newTestServer(t, session.Config{})
	c2.do("POST", "/v1/sessions/resume", snap, http.StatusCreated, nil)

	// Finish both copies with the same batched loop; they must agree.
	finish := func(c *client, id string) api.Hypothesis {
		for rounds := 0; ; rounds++ {
			if rounds > 100 {
				t.Fatal("dialogue did not converge")
			}
			var qr api.QuestionsResponse
			c.do("GET", "/v1/sessions/"+id+"/questions?n=16", nil, http.StatusOK, &qr)
			if qr.Done {
				break
			}
			answers := make([]api.Answer, len(qr.Questions))
			for i, q := range qr.Questions {
				answers[i] = api.Answer{Item: q.Item, Positive: oracle(q.Item)}
			}
			c.do("POST", "/v1/sessions/"+id+"/answers", api.AnswersRequest{Answers: answers}, http.StatusOK, nil)
		}
		var h api.Hypothesis
		c.do("GET", "/v1/sessions/"+id+"/query", nil, http.StatusOK, &h)
		return h
	}
	h1 := finish(c1, created.ID)
	h2 := finish(c2, created.ID)
	if h1.Query != h2.Query || !h1.Converged || !h2.Converged {
		t.Errorf("mid-batch resume diverged: original %+v, resumed %+v", h1, h2)
	}
}

// TestUnversionedSessionPathsAre404: session routes exist only under /v1.
// Every former unversioned alias answers 404 with no Deprecation header, on
// a bare server and through the cluster router (which must not redirect or
// forward them either).
func TestUnversionedSessionPathsAre404(t *testing.T) {
	mgr := session.NewManager(session.Config{})
	sess, err := mgr.Create("join", taskByModel["join"], session.CreateOptions{})
	must(t, err)
	id := sess.ID()
	srv := New(mgr)

	st, _, err := store.Open(t.TempDir(), store.Options{})
	must(t, err)
	t.Cleanup(func() { st.Close() })
	cl, err := cluster.New(cluster.Config{
		NodeID: "n1",
		Peers:  []cluster.Peer{{ID: "n1", Addr: "127.0.0.1:1"}, {ID: "n2", Addr: "127.0.0.1:2"}},
		Store:  st,
	})
	must(t, err)

	body := mustJSON(t, api.CreateRequest{Model: "join", Task: taskByModel["join"]})
	for name, h := range map[string]http.Handler{"bare": srv.Handler(), "cluster": cl.Router(srv.Handler())} {
		ts := httptest.NewServer(h)
		c := &client{t: t, base: ts.URL, http: ts.Client()}
		for _, rt := range []struct{ method, path string }{
			{"POST", "/sessions"},
			{"POST", "/sessions/resume"},
			{"GET", "/sessions/" + id},
			{"GET", "/sessions/" + id + "/question"},
			{"POST", "/sessions/" + id + "/answers"},
			{"GET", "/sessions/" + id + "/query"},
			{"GET", "/sessions/" + id + "/snapshot"},
			{"DELETE", "/sessions/" + id},
		} {
			resp := c.doRaw(rt.method, rt.path, body, jsonHeaders)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: %s %s: HTTP %d, want 404", name, rt.method, rt.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Deprecation"); got != "" {
				t.Errorf("%s: %s %s carries Deprecation %q", name, rt.method, rt.path, got)
			}
		}
		ts.Close()
	}
	if _, err := mgr.Get(id); err != nil {
		t.Errorf("session gone after unversioned DELETE: %v", err)
	}
	if mgr.Len() != 1 {
		t.Errorf("%d live sessions, want 1 (unversioned POSTs must not create)", mgr.Len())
	}
}

// TestV1StrictDecoding: unknown body fields fail loudly.
func TestV1StrictDecoding(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	body := []byte(`{"model":"join","task":` + string(mustJSON(t, taskByModel["join"])) + `,"modle":"typo"}`)

	resp := c.doRaw("POST", "/v1/sessions", body, jsonHeaders)
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	must(t, json.NewDecoder(resp.Body).Decode(&e))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != api.CodeBadJSON {
		t.Errorf("v1 unknown field: HTTP %d code %q", resp.StatusCode, e.Error.Code)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	must(t, err)
	return b
}

// TestBodyGuards: non-JSON Content-Type is 415 unsupported_media_type and
// an oversized body is 413 body_too_large (not a generic 400).
func TestBodyGuards(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})

	resp := c.doRaw("POST", "/v1/sessions", []byte(`{"model":"join"}`),
		map[string]string{"Content-Type": "text/plain"})
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	must(t, json.NewDecoder(resp.Body).Decode(&e))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || e.Error.Code != api.CodeUnsupportedMediaType {
		t.Errorf("text/plain POST: HTTP %d code %q", resp.StatusCode, e.Error.Code)
	}

	huge := append([]byte(`{"task":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp = c.doRaw("POST", "/v1/sessions", huge, jsonHeaders)
	must(t, json.NewDecoder(resp.Body).Decode(&e))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != api.CodeBodyTooLarge {
		t.Errorf("oversized POST: HTTP %d code %q", resp.StatusCode, e.Error.Code)
	}
}

// TestBadParams: malformed n and limit values are 400 bad_param.
func TestBadParams(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	id := c.create("join", taskByModel["join"])
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	for _, path := range []string{
		"/v1/sessions/" + id + "/questions?n=0",
		"/v1/sessions/" + id + "/questions?n=banana",
		fmt.Sprintf("/v1/sessions/%s/questions?n=%d", id, api.MaxQuestionBatch+1),
		"/v1/sessions?limit=0",
		"/v1/sessions?limit=nope",
	} {
		c.do("GET", path, nil, http.StatusBadRequest, &e)
		if e.Error.Code != api.CodeBadParam {
			t.Errorf("GET %s: code %q, want %q", path, e.Error.Code, api.CodeBadParam)
		}
	}
}

// TestListSessionsPagination: GET /v1/sessions pages the live sessions in
// ascending id order with a stable next_page_token cursor.
func TestListSessionsPagination(t *testing.T) {
	c, _ := newTestServer(t, session.Config{})
	ids := map[string]bool{}
	for i := 0; i < 7; i++ {
		ids[c.create("join", taskByModel["join"])] = true
	}
	var all []string
	token := ""
	for page := 0; ; page++ {
		if page > 10 {
			t.Fatal("pagination did not terminate")
		}
		path := "/v1/sessions?limit=3"
		if token != "" {
			path += "&page_token=" + token
		}
		var list api.SessionList
		c.do("GET", path, nil, http.StatusOK, &list)
		if len(list.Sessions) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(list.Sessions))
		}
		for _, st := range list.Sessions {
			all = append(all, st.ID)
			if st.Model != "join" {
				t.Errorf("listed session %s has model %q", st.ID, st.Model)
			}
		}
		if list.NextPageToken == "" {
			break
		}
		token = list.NextPageToken
	}
	if len(all) != 7 {
		t.Fatalf("pagination returned %d sessions, want 7", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Errorf("listing not in ascending id order: %q >= %q", all[i-1], all[i])
		}
	}
	for _, id := range all {
		if !ids[id] {
			t.Errorf("listing invented session %q", id)
		}
	}
}

// TestIdempotencyKeys: a retried create replays the stored response (same
// id, no second session), a retried answers batch does not double-charge,
// and a reused key with a different body conflicts.
func TestIdempotencyKeys(t *testing.T) {
	c, mgr := newTestServer(t, session.Config{CostPerHIT: 1})
	body, _ := json.Marshal(api.CreateRequest{Model: "join", Task: taskByModel["join"]})
	hdr := map[string]string{"Content-Type": "application/json", api.IdempotencyKeyHeader: "key-1"}

	first := c.doRaw("POST", "/v1/sessions", body, hdr)
	var created1 api.CreateResponse
	must(t, json.NewDecoder(first.Body).Decode(&created1))
	first.Body.Close()
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first create: HTTP %d", first.StatusCode)
	}

	second := c.doRaw("POST", "/v1/sessions", body, hdr)
	var created2 api.CreateResponse
	must(t, json.NewDecoder(second.Body).Decode(&created2))
	second.Body.Close()
	if second.StatusCode != http.StatusCreated || created2.ID != created1.ID {
		t.Errorf("replayed create: HTTP %d id %q, want 201 id %q", second.StatusCode, created2.ID, created1.ID)
	}
	if second.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Errorf("replayed create missing %s header", api.IdempotencyReplayedHeader)
	}
	if mgr.Len() != 1 {
		t.Errorf("%d live sessions after replayed create, want 1", mgr.Len())
	}

	// Same key, different body: conflict.
	otherBody, _ := json.Marshal(api.CreateRequest{Model: "path", Task: taskByModel["path"]})
	conflict := c.doRaw("POST", "/v1/sessions", otherBody, hdr)
	var e struct {
		Error struct{ Code string } `json:"error"`
	}
	must(t, json.NewDecoder(conflict.Body).Decode(&e))
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict || e.Error.Code != api.CodeIdempotencyConflict {
		t.Errorf("key reuse: HTTP %d code %q", conflict.StatusCode, e.Error.Code)
	}

	// Answers under a key: the retry must not double-charge the crowd spend.
	ansBody, _ := json.Marshal(api.AnswersRequest{Answers: []api.Answer{
		{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true},
	}})
	ansHdr := map[string]string{"Content-Type": "application/json", api.IdempotencyKeyHeader: "key-answers"}
	for i := 0; i < 2; i++ {
		resp := c.doRaw("POST", "/v1/sessions/"+created1.ID+"/answers", ansBody, ansHdr)
		var res api.AnswerResult
		must(t, json.NewDecoder(resp.Body).Decode(&res))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || res.HITs != 1 || res.Cost != 1 {
			t.Errorf("answers attempt %d: HTTP %d result %+v (want 1 HIT, $1)", i, resp.StatusCode, res)
		}
	}
	var st api.Status
	c.do("GET", "/v1/sessions/"+created1.ID, nil, http.StatusOK, &st)
	if st.HITs != 1 || st.Cost != 1 {
		t.Errorf("session charged %d HITs ($%v) after idempotent retry, want 1 ($1)", st.HITs, st.Cost)
	}

	// The stored 200 must replay even after the session is gone: a worker
	// whose response was lost retries after a coordinator deleted the
	// converged session, and must not be told 404.
	c.do("DELETE", "/v1/sessions/"+created1.ID, nil, http.StatusNoContent, nil)
	resp := c.doRaw("POST", "/v1/sessions/"+created1.ID+"/answers", ansBody, ansHdr)
	var res api.AnswerResult
	must(t, json.NewDecoder(resp.Body).Decode(&res))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.HITs != 1 {
		t.Errorf("post-delete keyed retry: HTTP %d result %+v, want replayed 200 with 1 HIT", resp.StatusCode, res)
	}
	if resp.Header.Get(api.IdempotencyReplayedHeader) != "true" {
		t.Errorf("post-delete retry was not marked replayed")
	}
}
