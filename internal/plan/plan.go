// Package plan is the shared greedy planning layer behind the evaluation
// cores: cheap per-operand cardinality/selectivity estimates from data the
// engines already hold (CSR degree sums, candidate popcounts, pool sizes),
// greedy cheapest-first ordering, and a streaming Sink operator contract
// with early termination.
//
// The design follows the "greedy beats optimal" discipline: no statistics
// are collected or maintained — every estimate is a constant-time read of a
// structure the engine built anyway, and every ordering decision is a
// cheapest-first argmin over those reads. Planning cost is nanoseconds to
// microseconds per operation, so it can run on every request.
//
// Decisions surface through internal/obs: Register installs the
// querylearn_plan_* metric families into a shared registry, and a Recorder
// threaded down from the session layer accumulates per-request planning
// time that the manager folds into the request trace as a "plan" phase.
//
// QUERYLEARN_NOPLAN=1 (or SetDisabled) reverts every consumer to its
// pre-planning fixed order — the rollback knob, and the baseline arm the
// T19 experiment and the differential tests compare against.
package plan

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/obs"
)

var disabled atomic.Bool

func init() { disabled.Store(os.Getenv("QUERYLEARN_NOPLAN") != "") }

// Disabled reports whether planning is globally off: consumers fall back to
// their fixed, hand-picked evaluation order.
func Disabled() bool { return disabled.Load() }

// SetDisabled flips the global planning switch and returns the previous
// value — the programmatic form of QUERYLEARN_NOPLAN for tests and the
// unplanned arms of benchmarks.
func SetDisabled(v bool) bool { return disabled.Swap(v) }

// metrics holds the querylearn_plan_* families of one registry.
type metrics struct {
	decisions  *obs.CounterVec // querylearn_plan_decisions_total{layer,choice}
	earlyStops *obs.CounterVec // querylearn_plan_early_stops_total{layer}
	seconds    *obs.HistogramVec
}

var mx atomic.Pointer[metrics]

// Register installs the plan metric families into the registry and points
// all subsequent planner decisions at it. Registration is idempotent per
// registry (internal/obs semantics); calling it again with a new registry
// re-binds the process, matching how a rebuilt server re-binds its stats.
func Register(reg *obs.Registry) {
	m := &metrics{
		decisions: reg.CounterVec("querylearn_plan_decisions_total",
			"planner decisions by evaluation layer and chosen alternative", "layer", "choice"),
		earlyStops: reg.CounterVec("querylearn_plan_early_stops_total",
			"evaluations cut short by a planner short-circuit", "layer"),
		seconds: reg.HistogramVec("querylearn_plan_seconds",
			"time spent planning (estimating + ordering), by layer", "layer"),
	}
	mx.Store(m)
}

// CountDecision records n planner decisions for a (layer, choice) pair into
// the registered metrics; a nil registry makes it free.
func CountDecision(layer, choice string, n int) {
	if n <= 0 {
		return
	}
	if m := mx.Load(); m != nil {
		m.decisions.With(layer, choice).Add(int64(n))
	}
}

// CountEarlyStop records a short-circuit taken by a layer.
func CountEarlyStop(layer string) {
	if m := mx.Load(); m != nil {
		m.earlyStops.With(layer).Inc()
	}
}

// ObservePlanTime records time spent planning in a layer.
func ObservePlanTime(layer string, d time.Duration) {
	if m := mx.Load(); m != nil {
		m.seconds.With(layer).Observe(d)
	}
}

// Decision is one recorded planner choice, kept by a Recorder for the
// request trace and the slow-request log.
type Decision struct {
	Layer  string `json:"layer"`
	Choice string `json:"choice"`
	N      int    `json:"n"`
}

// Recorder accumulates a request's planning work — time spent estimating
// and ordering, decisions taken, short-circuits fired — so the session
// layer can attribute it onto the request trace. All methods are nil-safe,
// mirroring obs.Trace: unobserved call paths pass nil and pay a nil check.
type Recorder struct {
	mu         sync.Mutex
	nanos      int64
	decisions  []Decision
	earlyStops int
}

// Decide records n decisions of a (layer, choice) pair, both locally and
// into the registered metrics.
func (r *Recorder) Decide(layer, choice string, n int) {
	if n <= 0 {
		return
	}
	CountDecision(layer, choice, n)
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range r.decisions {
		if r.decisions[i].Layer == layer && r.decisions[i].Choice == choice {
			r.decisions[i].N += n
			r.mu.Unlock()
			return
		}
	}
	r.decisions = append(r.decisions, Decision{Layer: layer, Choice: choice, N: n})
	r.mu.Unlock()
}

// EarlyStop records a short-circuit taken by a layer.
func (r *Recorder) EarlyStop(layer string) {
	CountEarlyStop(layer)
	if r == nil {
		return
	}
	r.mu.Lock()
	r.earlyStops++
	r.mu.Unlock()
}

// AddPlanTime accumulates time spent planning in a layer, locally and into
// the registered histogram.
func (r *Recorder) AddPlanTime(layer string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	ObservePlanTime(layer, d)
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nanos += d.Nanoseconds()
	r.mu.Unlock()
}

// StartPlan begins a planning segment and returns the function ending it:
//
//	done := rec.StartPlan("graph.evalpairs")
//	... estimate + order ...
//	done()
//
// Safe on a nil Recorder (global metrics still observe).
func (r *Recorder) StartPlan(layer string) func() {
	start := time.Now()
	return func() { r.AddPlanTime(layer, time.Since(start)) }
}

// Drain returns the accumulated planning time, decisions, and early stops,
// resetting the recorder — the manager calls this once per request to stamp
// the "plan" phase onto the trace.
func (r *Recorder) Drain() (time.Duration, []Decision, int) {
	if r == nil {
		return 0, nil, 0
	}
	r.mu.Lock()
	d, ds, es := time.Duration(r.nanos), r.decisions, r.earlyStops
	r.nanos, r.decisions, r.earlyStops = 0, nil, 0
	r.mu.Unlock()
	return d, ds, es
}

// Pick returns the index in [0, n) maximizing score, first-wins on ties —
// the greedy selection rule behind the witness choice in the semijoin
// approximation. Returns -1 when n == 0.
func Pick(n int, score func(int) int) int {
	best, bestScore := -1, 0
	for i := 0; i < n; i++ {
		if s := score(i); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// PickMin is Pick with minimization — cheapest-first.
func PickMin(n int, cost func(int) int) int {
	return Pick(n, func(i int) int { return -cost(i) })
}

// Order returns the indices 0..n-1 sorted ascending by cost, stably —
// greedy cheapest-first ordering for operand lists whose costs are fixed up
// front (insertion sort: operand lists here are tens of entries, and
// stability preserves the pre-planning tie order).
func Order(n int, cost func(int) int) []int {
	out := make([]int, n)
	costs := make([]int, n)
	for i := 0; i < n; i++ {
		out[i], costs[i] = i, cost(i)
	}
	for i := 1; i < n; i++ {
		j, c := out[i], costs[i]
		k := i - 1
		for k >= 0 && costs[k] > c {
			out[k+1], costs[k+1] = out[k], costs[k]
			k--
		}
		out[k+1], costs[k+1] = j, c
	}
	return out
}

// Sink consumes one streamed element; returning false stops the stream —
// the early-termination half of the streaming operator contract. Producers
// guarantee no further emissions after a false return (in-flight parallel
// work may still complete, but its results are dropped).
type Sink[T any] func(T) bool

// Collect returns a sink appending every element to *out; it never stops
// the stream. It is how the materializing entry points (Eval, EvalPairs)
// are expressed over their streaming cores.
func Collect[T any](out *[]T) Sink[T] {
	return func(v T) bool {
		*out = append(*out, v)
		return true
	}
}
