package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"querylearn/internal/session"
	"querylearn/pkg/api"
)

// recoveredServer boots a server the way querylearnd does on a data
// directory: the manager recovers snaps before serving. Every request is
// logged with its phases to the returned buffer.
func recoveredServer(t *testing.T, snaps ...session.Snapshot) (*client, *bytes.Buffer) {
	t.Helper()
	mgr := session.NewManager(session.Config{})
	if n, err := mgr.Recover(snaps); n != len(snaps) || err != nil {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(New(mgr, WithSlowRequestLog(logger, 0, 1)).Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, http: ts.Client()}, &buf
}

// joinSnapshot is a join dialogue journaled one negative answer in.
func joinSnapshot(t *testing.T) session.Snapshot {
	t.Helper()
	s, err := session.NewManager(session.Config{}).Create("join", joinTask, session.CreateOptions{})
	must(t, err)
	_, err = s.Answer([]session.Answer{{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: false}}, session.ReconcileNone)
	must(t, err)
	return s.Snapshot()
}

// loggedPhases returns the phase names of the last slow-request log line.
func loggedPhases(t *testing.T, buf *bytes.Buffer) map[string]bool {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var logged struct {
		Endpoint string `json:"endpoint"`
		Phases   []struct {
			Name string `json:"name"`
		} `json:"phases"`
	}
	must(t, json.Unmarshal([]byte(lines[len(lines)-1]), &logged))
	if logged.Endpoint != "question" {
		t.Fatalf("last logged request is %q, want question", logged.Endpoint)
	}
	names := map[string]bool{}
	for _, ph := range logged.Phases {
		names[ph.Name] = true
	}
	return names
}

// TestRecoveredSessionFailsAtFirstQuestion: a recovered session whose
// answers no longer replay is served until its first question, which
// answers 409 session_failed; its status then says so and DELETE removes it.
func TestRecoveredSessionFailsAtFirstQuestion(t *testing.T) {
	snap := joinSnapshot(t)
	// The same pair labeled both ways: no join predicate fits the log.
	snap.Answers = append(snap.Answers, session.Answer{Item: json.RawMessage(`{"left":0,"right":0}`), Positive: true})
	snap.HITs++
	c, _ := recoveredServer(t, snap)

	var st api.Status
	c.do("GET", "/v1/sessions/"+snap.ID, nil, http.StatusOK, &st)
	if st.Failed != "" {
		t.Fatalf("failed before first touch: %+v", st)
	}
	var e struct {
		Error api.Error `json:"error"`
	}
	c.do("GET", "/v1/sessions/"+snap.ID+"/question", nil, http.StatusConflict, &e)
	if e.Error.Code != api.CodeSessionFailed {
		t.Errorf("first question code = %q, want %q", e.Error.Code, api.CodeSessionFailed)
	}
	c.do("GET", "/v1/sessions/"+snap.ID, nil, http.StatusOK, &st)
	if st.Failed == "" {
		t.Errorf("status after failed first question = %+v", st)
	}
	c.do("DELETE", "/v1/sessions/"+snap.ID, nil, http.StatusNoContent, nil)
	c.do("GET", "/v1/sessions/"+snap.ID, nil, http.StatusNotFound, nil)
}

// TestFirstTouchLogsLearnerBuild: a recovered session's learner is built
// inside its first question's request, which the slow-request log
// attributes to learner.build; the second question builds nothing.
func TestFirstTouchLogsLearnerBuild(t *testing.T) {
	snap := joinSnapshot(t)
	c, buf := recoveredServer(t, snap)
	c.do("GET", "/v1/sessions/"+snap.ID+"/question", nil, http.StatusOK, nil)
	if first := loggedPhases(t, buf); !first["learner.build"] || !first["learner.propose"] {
		t.Errorf("first question phases = %v, want learner.build and learner.propose", first)
	}
	c.do("GET", "/v1/sessions/"+snap.ID+"/question", nil, http.StatusOK, nil)
	if second := loggedPhases(t, buf); second["learner.build"] {
		t.Errorf("second question rebuilt the learner: phases %v", second)
	}
}
