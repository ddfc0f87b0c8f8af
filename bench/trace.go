package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/pkg/api"
)

// span is one interval the benchmark timed from outside the program: an
// action of the generator, or one HTTP request inside it. HTTP spans carry
// the X-Request-Id the SDK set, which is what joins them to the daemon's
// slow-request log.
type span struct {
	ID     string      `json:"id"`
	Parent string      `json:"parent,omitempty"`
	Name   string      `json:"name"`
	Method string      `json:"method,omitempty"`
	Path   string      `json:"path,omitempty"`
	Status int         `json:"status,omitempty"`
	Start  float64     `json:"start_s"` // seconds since the tracer started
	End    float64     `json:"end_s"`
	Server *slowRecord `json:"server,omitempty"`
	start  time.Time
	end    time.Time
}

// tracer records spans in memory; they are written out when the run ends.
// It doubles as the HTTP transport wrapper. A nil *tracer records nothing.
type tracer struct {
	base  http.RoundTripper
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type actionKey struct{}

// action opens a generator-side span; HTTP requests issued under the
// returned context become its children.
func (t *tracer) action(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id := fmt.Sprintf("a%d", t.next.Add(1))
	start := time.Now()
	return context.WithValue(ctx, actionKey{}, id), func() {
		t.add(span{ID: id, Name: name, start: start, end: time.Now()})
	}
}

func (t *tracer) add(s span) {
	s.Start = s.start.Sub(t.epoch).Seconds()
	s.End = s.end.Sub(t.epoch).Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// RoundTrip times one request until its body is closed, which the SDK does
// right after reading it whole.
func (t *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(actionKey{}).(string)
	s := span{
		ID: req.Header.Get(api.RequestIDHeader), Parent: parent, Name: "http",
		Method: req.Method, Path: req.URL.Path, start: time.Now(),
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		t.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.add(b.s)
	})
	return err
}

// httpSpans returns the recorded HTTP spans that started at or after from.
func (t *tracer) httpSpans(from time.Time) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == "http" && !s.start.Before(from) {
			out = append(out, s)
		}
	}
	return out
}

// layers is the attribution of client-observed request time to the layers
// a request crosses, from the join of client spans with the daemon's
// per-request phase log. Every value is a total in microseconds over the
// joined requests; dividing by requests gives per-request means that add up
// to the mean client-observed request time.
type layers struct {
	requests int
	unjoined int
	client   float64 // total client-observed request time
	parts    map[string]float64
}

// The phase names the daemon's request trace records. plan is recorded after
// the learner phase it ran inside, fsync.wait inside journal.append; both
// are subtracted from their enclosing phase to give self times.
const (
	phasePlan  = "plan"
	phaseFsync = "fsync.wait"
)

// joinLayers attributes each HTTP span to layers:
//
//	client.residual  client span − server duration (SDK, loopback, HTTP parsing)
//	server.residual  server duration − the top-level phases (routing, JSON)
//	<phase>          each phase's self time
func joinLayers(spans []span, recs []slowRecord) layers {
	byID := make(map[string]*slowRecord, len(recs))
	for i := range recs {
		byID[recs[i].RequestID] = &recs[i]
	}
	l := layers{parts: map[string]float64{}}
	for i := range spans {
		s := &spans[i]
		rec := byID[s.ID]
		if rec == nil {
			l.unjoined++
			continue
		}
		s.Server = rec
		l.requests++
		clientUS := s.end.Sub(s.start).Seconds() * 1e6
		serverUS := rec.Duration * 1e6
		l.client += clientUS
		l.parts["client.residual"] += clientUS - serverUS
		self := map[string]float64{}
		var order []string // learner phases in trace order, for plan attribution
		var top, fsync float64
		for _, ph := range rec.Phases {
			us := ph.Seconds * 1e6
			switch {
			case ph.Name == phasePlan:
				// Charge plan to the learner phases it ran inside, latest first.
				rest := us
				for k := len(order) - 1; k >= 0 && rest > 0; k-- {
					take := min(rest, self[order[k]])
					self[order[k]] -= take
					rest -= take
				}
				l.parts[phasePlan] += us
				top += rest // plan time no learner phase covers is top level
			case ph.Name == phaseFsync:
				fsync += us
			default:
				top += us
				self[ph.Name] += us
				if strings.HasPrefix(ph.Name, "learner.") {
					order = append(order, ph.Name)
				}
			}
		}
		self["journal.append"] -= fsync
		l.parts[phaseFsync] += fsync
		for name, us := range self {
			l.parts[name] += us
		}
		l.parts["server.residual"] += serverUS - top
	}
	return l
}

// perRequest is a layer's mean microseconds per joined request.
func (l layers) perRequest(name string) float64 {
	if l.requests == 0 {
		return 0
	}
	return l.parts[name] / float64(l.requests)
}

// reconcile reports the per-request layer means, their sum and the mean
// client-observed request time they must add up to.
func (l layers) reconcile(r *run) {
	if l.requests == 0 {
		r.printf("trace: no requests joined to the slow-request log (%d unjoined)", l.unjoined)
		return
	}
	names := make([]string, 0, len(l.parts))
	for n := range l.parts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.parts[names[i]] > l.parts[names[j]] })
	var sum float64
	r.printf("layer attribution over %d requests (%d unjoined), mean µs per request:", l.requests, l.unjoined)
	for _, n := range names {
		v := l.perRequest(n)
		sum += v
		r.printf("  %-18s %10.2f", n, v)
	}
	mean := l.client / float64(l.requests)
	r.printf("  %-18s %10.2f (client-observed mean %.2f, difference %.2f%%)", "sum", sum, mean, 100*(sum-mean)/mean)
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string, joined []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	byID := map[string]*slowRecord{}
	for i := range joined {
		byID[joined[i].ID] = joined[i].Server
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Name == "http" {
			s.Server = byID[s.ID]
		}
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
