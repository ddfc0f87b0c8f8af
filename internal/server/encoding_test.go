package server

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"querylearn/internal/session"
	"querylearn/pkg/api"
)

// TestPooledEncodingByteIdentical pins the pooled writer's contract: its
// output is byte-for-byte json.MarshalIndent (two-space indent) plus a
// trailing newline — what an idempotent replay writes — including
// HTML-escaping, under a JSON Content-Type.
func TestPooledEncodingByteIdentical(t *testing.T) {
	s := New(session.NewManager(session.Config{}))
	values := []any{
		api.CreateResponse{ID: "s1", Model: "join"},
		api.QuestionsResponse{Done: false, Questions: []session.Question{
			{Item: json.RawMessage(`{"left":0,"right":1}`), Remaining: 3},
		}},
		api.ErrorResponse{Error: &api.Error{Code: api.CodeBadJSON, Message: `needs <escaping> & "quotes"`}},
		map[string]any{"nested": map[string]any{"html": "<b>&</b>", "n": 1.5}},
	}
	for i, v := range values {
		rec := httptest.NewRecorder()
		s.writeJSON(rec, 200, v)
		b, err := json.MarshalIndent(v, "", "  ")
		must(t, err)
		if got, want := rec.Body.String(), string(b)+"\n"; got != want {
			t.Errorf("value %d diverged:\npooled  %q\nmarshal %q", i, got, want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("value %d content-type %q", i, got)
		}
	}
}

// TestPooledEncodingConcurrent hammers the pooled path from many goroutines
// (run under -race in CI): recycled buffers must never leak bytes across
// responses.
func TestPooledEncodingConcurrent(t *testing.T) {
	s := New(session.NewManager(session.Config{}))
	want := map[int]string{}
	for i := 0; i < 8; i++ {
		b, _ := json.MarshalIndent(api.CreateResponse{ID: string(rune('a' + i)), Model: "join"}, "", "  ")
		want[i] = string(b) + "\n"
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec := httptest.NewRecorder()
				s.writeJSON(rec, 200, api.CreateResponse{ID: string(rune('a' + i)), Model: "join"})
				if rec.Body.String() != want[i] {
					t.Errorf("goroutine %d saw cross-talk: %q", i, rec.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
