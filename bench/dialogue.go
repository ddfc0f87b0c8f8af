package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

// maxConns caps the benchmark's connections to the daemon: the generator
// gets no more connections (or request goroutines) than the machine the
// benchmark was sized on has CPUs.
const maxConns = 2

// newHTTPClient builds the one HTTP client a run drives the daemon through.
// A traced run wraps the transport to record a span per request.
func newHTTPClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	if tr != nil {
		tr.base = rt
		rt = tr
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

// newSDK builds a pkg/client without retries or a circuit breaker: every
// error, 429 and timeout the daemon produces reaches the benchmark's count.
func newSDK(base string, hc *http.Client) *client.Client {
	return client.New(base, client.WithHTTPClient(hc), client.WithRetry(0, 0), client.WithCircuitBreaker(0, 0))
}

// ledger checks the paper's cost, questions per dialogue: a task variant
// must take the same number of questions every time it is learned.
type ledger struct {
	mu     sync.Mutex
	counts map[*variant]int
}

func newLedger() *ledger { return &ledger{counts: map[*variant]int{}} }

func (l *ledger) record(v *variant, questions int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.counts[v]; ok && prev != questions {
		return fmt.Errorf("variant %d (%s) took %d questions, earlier %d", v.id, v.model, questions, prev)
	}
	l.counts[v] = questions
	return nil
}

// mean is the average question count over the distinct variants learned.
func (l *ledger) mean() (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.counts) == 0 {
		return 0, 0
	}
	total := 0
	for _, q := range l.counts {
		total += q
	}
	return float64(total) / float64(len(l.counts)), len(l.counts)
}

// report prints the mean question count per model, and a warning when the
// run did not learn each of its want tasks: the mean then covers a subset
// and does not repeat exactly.
func (l *ledger) report(r *run, want int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.counts) < want {
		r.printf("WARNING: %d of %d tasks learned; questions_per_dialogue covers only those", len(l.counts), want)
	}
	sum, n := map[string]int{}, map[string]int{}
	for v, q := range l.counts {
		sum[v.model] += q
		n[v.model]++
	}
	line := "questions per dialogue by model:"
	for _, m := range models {
		if n[m] > 0 {
			line += fmt.Sprintf(" %s %.2f (%d tasks)", m, float64(sum[m])/float64(n[m]), n[m])
		}
	}
	r.printf("%s", line)
}

// timings collects raw latency samples by name from concurrent clients.
type timings struct {
	mu sync.Mutex
	by map[string]*samples
}

func newTimings() *timings { return &timings{by: map[string]*samples{}} }

func (t *timings) observe(name string, d time.Duration) {
	t.mu.Lock()
	s := t.by[name]
	if s == nil {
		s = &samples{}
		t.by[name] = s
	}
	s.addDur(d)
	t.mu.Unlock()
}

func (t *timings) get(name string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.by[name]; s != nil {
		return s
	}
	return &samples{}
}

// dialogueRunner runs closed-loop dialogues against one daemon and verifies
// each one's outcome.
type dialogueRunner struct {
	sdk    *client.Client
	tr     *tracer // nil when untraced
	ledger *ledger
	times  *timings
	// inWindow reports whether an operation started at t is measured; set
	// by the workload around its measured window.
	inWindow func(t time.Time) bool
}

// dialogue drives one session from its first question to a verified,
// deleted hypothesis. With id == "" it creates the session from the
// variant's seed task; otherwise it continues a recovered session whose
// answer log is prior. Timed phases: "ttfq" (create + first question) or
// "first" (first question of a recovered session), "turn" (answer + next
// question) and "finish" (hypothesis + delete).
func (d *dialogueRunner) dialogue(ctx context.Context, v *variant, id string, prior []label) error {
	labels := append([]label(nil), prior...)
	first := "first"
	start := time.Now()
	ctx, end := d.tr.action(ctx, "dialogue")
	defer end()
	if id == "" {
		first = "ttfq"
		created, err := d.sdk.Create(ctx, api.CreateRequest{Model: v.model, Task: v.seed})
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		id = created.ID
	}
	q, more, err := d.sdk.Question(ctx, id)
	if err != nil {
		return fmt.Errorf("first question: %w", err)
	}
	d.observe(first, start)
	for more {
		positive, err := v.ask(q.Item)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		t := time.Now()
		if _, err := d.sdk.Answers(ctx, id, []api.Answer{{Item: q.Item, Positive: positive}}, api.ReconcileNone); err != nil {
			return fmt.Errorf("answer: %w", err)
		}
		labels = append(labels, label{Item: q.Item, Positive: positive})
		if q, more, err = d.sdk.Question(ctx, id); err != nil {
			return fmt.Errorf("question: %w", err)
		}
		d.observe("turn", t)
	}
	t := time.Now()
	hyp, err := d.sdk.Hypothesis(ctx, id)
	if err != nil {
		return fmt.Errorf("hypothesis: %w", err)
	}
	if err := d.sdk.Delete(ctx, id); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	d.observe("finish", t)
	return verifyOutcome(v, hyp, labels, d.ledger)
}

func (d *dialogueRunner) observe(name string, start time.Time) {
	if d.inWindow == nil || d.inWindow(start) {
		d.times.observe(name, time.Since(start))
	}
}

// verifyOutcome checks a finished dialogue: the hypothesis converged, agrees
// with every label the oracle gave, and the variant took its usual number of
// questions.
func verifyOutcome(v *variant, hyp api.Hypothesis, labels []label, l *ledger) error {
	if !hyp.Converged {
		return fmt.Errorf("variant %d (%s): hypothesis %q not converged after %d questions", v.id, v.model, hyp.Query, len(labels))
	}
	if err := v.check(hyp.Query, labels); err != nil {
		return fmt.Errorf("variant %d (%s): %w", v.id, v.model, err)
	}
	return l.record(v, len(labels))
}
