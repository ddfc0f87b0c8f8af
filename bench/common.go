package main

import (
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"time"
)

// served is what every daemon workload shares: the daemon under test, the
// HTTP client that drives it and, in a traced run, the span recorder.
type served struct {
	r      *run
	d      *daemon
	tr     *tracer
	hc     *http.Client
	before usage
	start  time.Time // start of the measured window
	// bootPeaks holds the peak RSS, in MB, of every boot but the serving one.
	bootPeaks *samples
}

// bootReps is how many times a workload boots the daemon, each on a fresh
// data directory, to take the median boot time as setup_s.
const bootReps = 9

// bootDaemon boots querylearnd bootReps times on fresh data directories made
// by prep (nil: empty) and sets setup_s to the median exec-to-healthy time.
// The last daemon keeps running and serves the workload.
func bootDaemon(r *run, o daemonOpts, prep func(dataDir string) error) (*served, error) {
	// The first exec of a freshly linked binary pages it in from disk;
	// that cost belongs to the build, not to any boot.
	_ = exec.Command(r.cfg.daemon, "-h").Run() // -h exits non-zero by design
	o.traced = r.cfg.traced
	d, boots, peaks, err := bootSeries(r.cfg.daemon, r.cfg.dir, bootReps, o, prep)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", boots.quantile(0.5))
	r.printf("setup: %d boots, exec to /healthz 200: median %.4f s (min %.4f, max %.4f)",
		boots.n(), boots.quantile(0.5), boots.quantile(0), boots.quantile(1))
	s := &served{r: r, d: d, bootPeaks: peaks}
	if r.cfg.traced {
		s.tr = newTracer()
	}
	s.hc = newHTTPClient(s.tr)
	return s, nil
}

// open starts the measured window: the daemon's CPU, scrape and memory are
// read at both ends of it.
func (s *served) open() error {
	u, err := s.d.usage()
	if err != nil {
		return err
	}
	s.before, s.start = u, time.Now()
	return nil
}

func (s *served) inWindow(t time.Time) bool { return !s.start.IsZero() && !t.Before(s.start) }

// daemonMetrics sets the end-to-end metrics a dialogue workload reads off
// the daemon: its CPU per operation over the window, and its peak RSS.
func (s *served) daemonMetrics(ops int, cpu time.Duration, peak float64) {
	s.r.set("cpu_ms_per_op", cpu.Seconds()*1e3/float64(max(ops, 1)))
	s.r.set("peak_rss_mb", peak)
	s.r.printf("daemon: %.2f s CPU over %d ops in the window, peak RSS %.1f MB", cpu.Seconds(), ops, peak)
}

// close ends the measured window: it returns the daemon's CPU time over the
// window and its peak RSS, and in a traced run records the per-layer
// metrics of the scrape delta, the span join and the in-process replays.
// The daemon is SIGKILLed, leaving its journal exactly as a crash would.
func (s *served) close(replay *replayInputs) (cpu time.Duration, peak float64, err error) {
	after, err := s.d.usage()
	if err != nil {
		return 0, 0, err
	}
	return after.cpu - s.before.cpu, after.peak, s.perLayer(after, replay)
}

// perLayer kills the daemon and, in a traced run, records the per-layer
// metrics.
func (s *served) perLayer(after usage, replay *replayInputs) error {
	r := s.r
	delta := func(name string) float64 { return after.exp.SumByName(name) - s.before.exp.SumByName(name) }
	ratio := func(num, den string, scale float64) float64 {
		if d := delta(den); d > 0 {
			return delta(num) / d * scale
		}
		return 0
	}
	requests := delta("querylearn_http_requests_total")
	r.set("server.shed_ratio", ratio("querylearn_http_shed_total", "querylearn_http_requests_total", 1))
	r.set("plan.decisions", delta("querylearn_plan_decisions_total"))
	r.set("plan.early_stops", delta("querylearn_plan_early_stops_total"))
	r.printf("daemon: %.0f requests in the window, %.0f shed", requests, delta("querylearn_http_shed_total"))
	if !r.cfg.traced {
		s.d.kill()
		return nil
	}
	r.set("store.append_us", ratio("querylearn_store_append_seconds_sum", "querylearn_store_append_seconds_count", 1e6))
	r.set("store.fsync_ms", ratio("querylearn_store_fsync_seconds_sum", "querylearn_store_fsync_seconds_count", 1e3))
	r.set("store.events_per_fsync", ratio("querylearn_store_fsync_batch_events_sum", "querylearn_store_fsync_batch_events_count", 1))
	r.set("store.bytes_per_event", ratio("querylearn_codec_bytes_out_total", "querylearn_store_append_seconds_count", 1))
	r.set("codec.encode_us", ratio("querylearn_codec_encode_seconds_sum", "querylearn_codec_encode_seconds_count", 1e6))
	r.set("daemon.heap_mb", after.exp.SumByName("querylearn_go_heap_bytes")/(1<<20))
	r.set("daemon.goroutines", after.exp.SumByName("querylearn_go_goroutines"))

	spans := s.tr.httpSpans(s.start)
	l := joinLayers(spans, s.d.slowLog())
	s.d.kill()
	l.reconcile(r)
	r.set("client.residual_us", l.perRequest("client.residual"))
	r.set("server.residual_us", l.perRequest("server.residual"))
	r.set("session.admission_wait_us", l.perRequest("admission.wait"))
	r.set("session.lock_wait_us", l.perRequest("session.lock"))
	r.set("learner.propose_us", l.perRequest("learner.propose"))
	r.set("learner.validate_us", l.perRequest("learner.validate"))
	r.set("learner.record_us", l.perRequest("learner.record"))
	path := filepath.Join(r.cfg.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := s.tr.writeSpans(path, spans); err != nil {
		return err
	}
	r.printf("trace: spans written to %s", path)
	if replay.journal == "" {
		replay.journal = s.d.dataDir
	}
	return replay.run(r)
}
