package server

import (
	"runtime"

	"querylearn/internal/fault"
	"querylearn/internal/obs"
	"querylearn/internal/plan"
	"querylearn/internal/session"
	"querylearn/internal/store"
)

// endpointNames enumerates the instrumented endpoints in display order.
var endpointNames = []string{
	"create", "resume", "list", "status", "question", "questions", "answers",
	"query", "snapshot", "delete", "metrics", "healthz",
}

// endpointStats holds one endpoint's prebuilt metric handles, so the hot
// path bumps counters without any family lookup.
type endpointStats struct {
	requests *obs.Counter
	shed     *obs.Counter
}

// metrics is the server's observability surface: per-endpoint counters and
// latency histograms in an obs.Registry (shared with the store when the
// daemon wires one), exposed in the Prometheus text format.
type metrics struct {
	reg       *obs.Registry
	endpoints map[string]*endpointStats
	// errorsVec splits error responses by endpoint and stable api error code.
	errorsVec *obs.CounterVec
	// latency is the per-endpoint, per-HTTP-status request histogram.
	latency *obs.HistogramVec
	// phases aggregates the per-request trace phases (admission.wait,
	// session.lock, journal.append, fsync.wait, learner.*) across requests.
	phases *obs.HistogramVec
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &metrics{
		reg:       reg,
		endpoints: make(map[string]*endpointStats, len(endpointNames)),
		errorsVec: reg.CounterVec("querylearn_http_errors_total",
			"error responses by endpoint and stable api error code", "endpoint", "code"),
		latency: reg.HistogramVec("querylearn_http_request_seconds",
			"request latency by endpoint and HTTP status", "endpoint", "status"),
		phases: reg.HistogramVec("querylearn_phase_seconds",
			"per-request phase durations from the span trace", "phase"),
	}
	requests := reg.CounterVec("querylearn_http_requests_total",
		"requests routed, by endpoint", "endpoint")
	shed := reg.CounterVec("querylearn_http_shed_total",
		"requests shed by admission control (429), by endpoint", "endpoint")
	for _, n := range endpointNames {
		m.endpoints[n] = &endpointStats{requests: requests.With(n), shed: shed.With(n)}
	}
	// Bind the evaluation planner's querylearn_plan_* families to this
	// registry, so per-layer decision counts and plan time ride the same
	// exposition as the HTTP metrics.
	plan.Register(reg)
	return m
}

// registerRuntimeGauges binds process-level gauges. Called once per server;
// re-registering replaces the callbacks, which is what a rebuilt test server
// sharing a registry wants.
func (m *metrics) registerRuntimeGauges() {
	m.reg.GaugeFunc("querylearn_go_goroutines", "current goroutine count",
		func() float64 { return float64(runtime.NumGoroutine()) })
	m.reg.GaugeFunc("querylearn_go_heap_bytes", "heap bytes in use",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// statsGauge is one scrape-time view of a subsystem's stats snapshot.
type statsGauge[T any] struct {
	name, help string
	value      func(T) float64
}

// sessionGauges expose the session manager's lifecycle and dialogue counters.
var sessionGauges = []statsGauge[session.Stats]{
	{"querylearn_sessions_live", "live learning sessions", func(s session.Stats) float64 { return float64(s.Live) }},
	{"querylearn_sessions_created", "sessions created since start", func(s session.Stats) float64 { return float64(s.Created) }},
	{"querylearn_sessions_resumed", "sessions resumed from snapshots since start", func(s session.Stats) float64 { return float64(s.Resumed) }},
	{"querylearn_sessions_recovered", "sessions recovered from the journal at boot", func(s session.Stats) float64 { return float64(s.Recovered) }},
	{"querylearn_sessions_deleted", "sessions deleted since start", func(s session.Stats) float64 { return float64(s.Deleted) }},
	{"querylearn_sessions_expired", "sessions evicted by the TTL sweeper since start", func(s session.Stats) float64 { return float64(s.Expired) }},
	{"querylearn_session_labels", "answer labels recorded since start", func(s session.Stats) float64 { return float64(s.Labels) }},
	{"querylearn_session_questions", "questions proposed since start", func(s session.Stats) float64 { return float64(s.Questions) }},
	{"querylearn_session_journal_heals", "degraded-journal recoveries by the probe", func(s session.Stats) float64 { return float64(s.JournalHeals) }},
	{"querylearn_session_intern_items", "distinct answer items in the shared vocabulary", func(s session.Stats) float64 { return float64(s.InternItems) }},
	{"querylearn_session_intern_bytes", "bytes retained by the shared answer vocabulary", func(s session.Stats) float64 { return float64(s.InternBytes) }},
}

// storeGauges expose the journal's append, durability and recovery counters.
var storeGauges = []statsGauge[store.Stats]{
	{"querylearn_store_events_appended", "journal events appended since open", func(s store.Stats) float64 { return float64(s.Appended) }},
	{"querylearn_store_events_durable", "journal events known durable since open", func(s store.Stats) float64 { return float64(s.Durable) }},
	{"querylearn_store_fsyncs", "journal fsyncs since open", func(s store.Stats) float64 { return float64(s.Fsyncs) }},
	{"querylearn_store_recovered_sessions", "sessions the journal held at open", func(s store.Stats) float64 { return float64(s.Recovered.Sessions) }},
}

// registerStatsGauges binds scrape-time gauges over the manager, store and
// fault-registry snapshots, so the exposition carries every value those
// subsystems already track without a counter on any request path. A nil
// storeStats or faults skips its families.
func (m *metrics) registerStatsGauges(mgr *session.Manager, storeStats func() store.Stats, faults *fault.Registry) {
	for _, g := range sessionGauges {
		m.reg.GaugeFunc(g.name, g.help, func() float64 { return g.value(mgr.Stats()) })
	}
	if storeStats != nil {
		for _, g := range storeGauges {
			m.reg.GaugeFunc(g.name, g.help, func() float64 { return g.value(storeStats()) })
		}
	}
	if faults != nil {
		m.reg.GaugeFunc("querylearn_faults_injected", "faults injected across all points since start",
			func() float64 { return float64(faults.Injected()) })
	}
}
