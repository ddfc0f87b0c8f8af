package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/session"
	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

// mix-open: open loop. Poisson arrivals of user actions land on dialogue
// slots with zipf popularity; each arrival advances its slot's dialogue by
// one action. Tasks are fixture-sized variants of all four models, so the
// serving stack and the journal write path do the work and the learners do
// little; hot slots load the session locks. The rate is fixed well below
// capacity: a latency-limited "highest rate" would be a step function that
// cannot repeat within a tenth, so cpu_ms_per_op stands in as the capacity
// signal.
const (
	mixRate     = 2000.0 // user actions per second
	mixSlots    = 256
	mixZipf     = 1.1
	mixVariants = 256 // 64 per model
	// maxLag is the dispatcher-lateness p99 above which the generator,
	// not the daemon, shaped the latencies: the run is invalid.
	maxLag = 5 * time.Millisecond
)

// An action is one user step on a slot:
//
//	start   create + first question
//	turn    answer + next question
//	finish  hypothesis + delete
//	peek    status read of a session another action is advancing — the
//	        arrival still makes a real round trip without waiting for the
//	        slot, and contends for the session lock in the daemon
const (
	actStart  = "start"
	actTurn   = "turn"
	actFinish = "finish"
	actPeek   = "peek"
)

// slot is one dialogue position arrivals land on.
type slot struct {
	mu        sync.Mutex
	idx       int
	dialogues int // dialogues started here, which picks the next variant
	id        string
	v         *variant
	q         *api.Question // the open question; nil once converged
	acked     []label       // answers the daemon acknowledged in this session
	// peekID mirrors id for peeks, which must not wait for mu.
	peekID atomic.Value
}

func (sl *slot) setID(id string) {
	sl.id = id
	sl.peekID.Store(id)
}

// job is one released arrival.
type job struct {
	slot    int
	due     time.Time
	release time.Time
}

// outcome is a finished dialogue, verified after the run.
type outcome struct {
	v      *variant
	hyp    api.Hypothesis
	labels []label
}

type mixOpen struct {
	r        *run
	sdk      *client.Client
	tr       *tracer
	variants []*variant
	slots    []*slot
	window   time.Time // start of the measured window

	mu        sync.Mutex
	lat       map[string]*samples
	lag       samples
	ops       int
	outcomes  []outcome
	abandoned map[string]bool
}

func runMixOpen(ctx context.Context, r *run) error {
	vs, err := smallVariants(mixVariants)
	if err != nil {
		return err
	}
	s, err := bootDaemon(r, daemonOpts{}, nil)
	if err != nil {
		return err
	}
	defer s.d.kill()
	m := &mixOpen{
		r: r, sdk: newSDK(s.d.base, s.hc), tr: s.tr, variants: vs,
		lat: map[string]*samples{}, abandoned: map[string]bool{},
	}
	m.slots = make([]*slot, mixSlots)
	for i := range m.slots {
		m.slots[i] = &slot{idx: i}
	}

	arrivals := schedule(r.cfg.seed, r.cfg.size.mixWarmup+r.cfg.window())
	// Room for every arrival: the dispatcher never blocks on busy workers,
	// so the loop stays open.
	queue := make(chan job, len(arrivals))
	start := time.Now()
	m.window = start.Add(r.cfg.size.mixWarmup)
	go dispatch(start, arrivals, queue)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				m.execute(ctx, j)
			}
		}()
	}
	time.Sleep(time.Until(m.window))
	openErr := s.open()
	wg.Wait()
	if openErr != nil {
		return openErr
	}
	elapsed := time.Since(m.window)

	live := m.liveSessions()
	in := &replayInputs{}
	in.addVariants(vs)
	cpu, peak, err := s.close(in)
	if err != nil {
		return err
	}
	s.daemonMetrics(m.ops, cpu, peak)
	all := &samples{}
	for _, s := range m.lat {
		all.merge(s)
	}
	r.latency("user action (from release)", all, 0.90)
	r.set("ops_per_s", float64(m.ops)/elapsed.Seconds())
	lagP99 := m.lag.quantile(0.99)
	r.set("gen.lag_p99_ms", lagP99)
	r.printf("%d actions in the %.2f s window at %.0f/s offered over %d slots; dispatcher lateness p50 %.3f ms p99 %.3f ms",
		m.ops, elapsed.Seconds(), mixRate, mixSlots, m.lag.quantile(0.5), lagP99)
	for _, a := range []string{actStart, actTurn, actFinish, actPeek} {
		if s := m.lat[a]; s != nil {
			r.breakdown(a, s)
		}
	}
	if lagP99 > float64(maxLag)/1e6 {
		r.fail("dispatcher lateness p99 %.3f ms exceeds %v: the generator, not the daemon, shaped this run", lagP99, maxLag)
	}
	led := newLedger()
	for _, o := range m.outcomes {
		if err := verifyOutcome(o.v, o.hyp, o.labels, led); err != nil {
			r.fail("%v", err)
		}
	}
	q, n := led.mean()
	r.set("questions_per_dialogue", q)
	r.printf("%d dialogues finished and verified over %d distinct tasks, %.3f questions per dialogue", len(m.outcomes), n, q)
	led.report(r, len(vs))
	return m.audit(ctx, s.d.dataDir, live)
}

// arrival is one scheduled user action: when it is due, as an offset from
// the start of the run, and the slot it lands on.
type arrival struct {
	at   time.Duration
	slot int
}

// schedule draws a run's Poisson arrivals on zipf-popular slots, from the
// seed alone.
func schedule(seed int64, length time.Duration) []arrival {
	rng := rngFor(seed, "arrivals", 0)
	zipf := rand.NewZipf(rng, mixZipf, 1, mixSlots-1)
	var out []arrival
	var offset float64
	for {
		offset += rng.ExpFloat64() / mixRate
		at := time.Duration(offset * float64(time.Second))
		if at > length {
			return out
		}
		out = append(out, arrival{at: at, slot: int(zipf.Uint64())})
	}
}

// dispatch releases the scheduled arrivals on time. It is the run's only
// source of load; its lateness is measured per job.
func dispatch(start time.Time, arrivals []arrival, queue chan<- job) {
	defer close(queue)
	for _, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{slot: a.slot, due: due, release: time.Now()}
	}
}

// execute performs one arrival's action and records its latency, measured
// from the release: waiting for a free connection counts. A failure counts
// in every phase, warm-up included; only the window's actions are timed.
func (m *mixOpen) execute(ctx context.Context, j job) {
	sl := m.slots[j.slot]
	kind, err := actPeek, error(nil)
	ctx, end := m.tr.action(ctx, "action")
	if sl.mu.TryLock() {
		kind, err = m.advance(ctx, sl)
		sl.mu.Unlock()
	} else {
		err = m.peek(ctx, sl)
	}
	done := time.Now()
	end()
	m.r.attempt(1)
	if err != nil {
		m.r.fail("%s on slot %d: %v", kind, sl.idx, err)
	}
	if j.release.Before(m.window) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops++
	if m.lat[kind] == nil {
		m.lat[kind] = &samples{}
	}
	m.lat[kind].addDur(done.Sub(j.release))
	m.lag.addDur(j.release.Sub(j.due))
}

// peek reads the status of a session another action holds. A slot between
// dialogues has no session yet; the read then lists one session.
func (m *mixOpen) peek(ctx context.Context, sl *slot) error {
	id, _ := sl.peekID.Load().(string)
	if id == "" {
		_, err := m.sdk.List(ctx, 1, "")
		return err
	}
	_, err := m.sdk.Status(ctx, id)
	if api.IsCode(err, api.CodeSessionNotFound) {
		return nil // finished and deleted in the meantime
	}
	return err
}

// advance performs the slot's next dialogue step. sl.mu is held.
func (m *mixOpen) advance(ctx context.Context, sl *slot) (string, error) {
	switch {
	case sl.id == "":
		sl.v = m.variants[(sl.idx+sl.dialogues*97)%len(m.variants)]
		sl.dialogues++
		created, err := m.sdk.Create(ctx, api.CreateRequest{Model: sl.v.model, Task: sl.v.seed})
		if err != nil {
			return actStart, err
		}
		sl.setID(created.ID)
		sl.acked = nil
		return actStart, m.nextQuestion(ctx, sl)
	case sl.q != nil:
		q := *sl.q
		positive, err := sl.v.ask(q.Item)
		if err != nil {
			return actTurn, err
		}
		if _, err := m.sdk.Answers(ctx, sl.id, []api.Answer{{Item: q.Item, Positive: positive}}, api.ReconcileNone); err != nil {
			m.abandon(sl)
			return actTurn, err
		}
		sl.acked = append(sl.acked, label{Item: q.Item, Positive: positive})
		return actTurn, m.nextQuestion(ctx, sl)
	default:
		hyp, err := m.sdk.Hypothesis(ctx, sl.id)
		if err == nil {
			err = m.sdk.Delete(ctx, sl.id)
		}
		if err != nil {
			m.abandon(sl)
			return actFinish, err
		}
		m.mu.Lock()
		m.outcomes = append(m.outcomes, outcome{v: sl.v, hyp: hyp, labels: sl.acked})
		m.mu.Unlock()
		sl.setID("")
		sl.acked = nil
		return actFinish, nil
	}
}

func (m *mixOpen) nextQuestion(ctx context.Context, sl *slot) error {
	q, more, err := m.sdk.Question(ctx, sl.id)
	if err != nil {
		m.abandon(sl)
		return err
	}
	sl.q = nil
	if more {
		sl.q = &q
	}
	return nil
}

// abandon forgets a slot's session after a failed action; the failure is
// already counted, and the audit neither expects the session nor counts it
// as resurrected.
func (m *mixOpen) abandon(sl *slot) {
	m.mu.Lock()
	m.abandoned[sl.id] = true
	m.mu.Unlock()
	sl.setID("")
	sl.q, sl.acked = nil, nil
}

// liveSessions snapshots the sessions the generator holds open, with the
// answers the daemon acknowledged in each.
func (m *mixOpen) liveSessions() map[string][]label {
	live := map[string][]label{}
	for _, sl := range m.slots {
		if sl.id != "" {
			live[sl.id] = sl.acked
		}
	}
	return live
}

// audit restarts the daemon on the SIGKILLed daemon's data directory and
// compares every live session's answer log with the answers the generator
// saw acknowledged: an acknowledged answer missing is lost, an answer logged
// more often than acknowledged, or a deleted session back, is a duplicate.
// With batched fsync this proves durability across a process crash, not
// across a power loss.
func (m *mixOpen) audit(ctx context.Context, dataDir string, live map[string][]label) error {
	d, err := startDaemon(m.r.cfg.daemon, daemonOpts{dataDir: dataDir})
	if err != nil {
		return err
	}
	defer d.kill()
	sdk := newSDK(d.base, newHTTPClient(nil))
	var lost, dup int
	seen := map[string]bool{}
	for page := ""; ; {
		list, err := sdk.List(ctx, 1000, page)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		for _, st := range list.Sessions {
			seen[st.ID] = true
			if _, ok := live[st.ID]; !ok && !m.abandoned[st.ID] {
				dup++ // a deleted or abandoned session came back
			}
		}
		if page = list.NextPageToken; page == "" {
			break
		}
	}
	for id, acked := range live {
		if !seen[id] {
			lost += len(acked) + 1
			continue
		}
		snap, err := sdk.Snapshot(ctx, id)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		missing, extra, err := compareLogs(acked, snap.Answers)
		if err != nil {
			return err
		}
		lost += missing
		dup += extra
	}
	m.r.set("store.audit_lost", float64(lost))
	m.r.set("store.audit_dup", float64(dup))
	m.r.attempt(int64(len(live)))
	if lost+dup > 0 {
		m.r.fail("acked-answer audit after SIGKILL: %d lost, %d duplicated", lost, dup)
	}
	m.r.printf("audit after SIGKILL and restart (durable across a process crash; batched fsync does not cover power loss): %d live sessions, %d lost, %d duplicated",
		len(live), lost, dup)
	return nil
}

// compareLogs counts the acknowledged answers missing from the journaled
// log (lost) and the logged answers beyond those acknowledged (dup), as
// multisets of canonical items and verdicts.
func compareLogs(acked []label, logged []api.Answer) (lost, dup int, err error) {
	count := map[string]int{}
	for _, a := range acked {
		k, err := session.ItemKey(a.Item)
		if err != nil {
			return 0, 0, err
		}
		count[fmt.Sprint(k, a.Positive)]++
	}
	for _, a := range logged {
		k, err := session.ItemKey(a.Item)
		if err != nil {
			return 0, 0, err
		}
		key := fmt.Sprint(k, a.Positive)
		if count[key] > 0 {
			count[key]--
		} else {
			dup++
		}
	}
	for _, c := range count {
		lost += c
	}
	return lost, dup, nil
}
