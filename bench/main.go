// Command bench is querylearn's benchmark. It builds nothing itself (see
// run.sh, which builds querylearnd and this program from the checkout), then
// runs one workload against querylearnd as a separate process on loopback —
// or, for batch-learn, against the learners in process — checks every
// output, and prints the metrics BENCHMARK.json declares. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. See README.md.
//
// Usage:
//
//	bench -daemon BIN [-work DIR] --workload W --seed N --seconds S --trace 0|1 [-record FILE]
//	bench -compare A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload BENCHMARK.json declares to the function that runs it.
var workloads = map[string]func(context.Context, *run) error{
	"mix-open":    runMixOpen,
	"path-geo":    runPathGeo,
	"batch-learn": runBatchLearn,
	"recover":     runRecover,
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	daemon   string // querylearnd binary
	work     string // directory for data, scratch and trace files
	dir      string // this run's scratch directory under work
	size     sizes
}

// sizes are the input sizes that set a run's length beyond the measured
// window. The smoke test shrinks them; benchmark runs use fullSize.
type sizes struct {
	mixWarmup        time.Duration // open-loop warm-up before the window
	geoGraphs        int           // path-geo graphs per size
	recoverPerSecond int           // recover corpus sessions per measured second
}

var fullSize = sizes{mixWarmup: 2 * time.Second, geoGraphs: 16, recoverPerSecond: 3000}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// run accumulates one run's outcome: the operation counts behind the
// failure ratio, the measured metric values, and the human report.
type run struct {
	cfg       config
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	lines     []string
}

// attempt counts n operations the workload tried.
func (r *run) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation or check and keeps its description.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// latency sets the workload's op_p50_ms and op_tail_ms from raw samples:
// each is the median, over one-second slices of the window, of the slice's
// exact percentile — or over fewer, longer slices when one second holds too
// few samples for ten to lie beyond the tail percentile. The report also
// gives the whole-window percentiles with the sample count.
func (r *run) latency(op string, s *samples, tail float64) {
	k := max(1, min(r.cfg.seconds, int(float64(s.n())*(1-tail))/minBeyond))
	r.set("op_p50_ms", s.sliced(0.5, k))
	r.set("op_tail_ms", s.sliced(tail, k))
	r.printf("op = %s: n=%d, whole window p50=%.4f ms p%g=%.4f ms (%d samples beyond); median over %d slices p50=%.4f ms p%g=%.4f ms",
		op, s.n(), s.quantile(0.5), tail*100, s.quantile(tail), s.beyond(tail),
		k, r.values["op_p50_ms"], tail*100, r.values["op_tail_ms"])
	if err := tailCheck(s, tail); err != nil {
		r.printf("WARNING: tail rule not met: %v", err)
	}
}

// breakdown reports a named latency distribution without making it a metric.
func (r *run) breakdown(name string, s *samples) {
	if s.n() == 0 {
		return
	}
	r.printf("  %-8s n=%-6d p50=%.4f ms p90=%.4f ms p99=%.4f ms max=%.4f ms",
		name, s.n(), s.quantile(0.5), s.quantile(0.9), s.quantile(0.99), s.quantile(1))
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	daemonBin := fs.String("daemon", "", "querylearnd binary to benchmark")
	work := fs.String("work", ".bench_build", "directory for data directories, scratch and trace files")
	recordPath := fs.String("record", "", "append this run's result as a JSON line to FILE, for -compare")
	compare := fs.Bool("compare", false, "compare two record files: bench -compare A B")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	// run.sh starts the benchmark at the root of the checkout.
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	drive, ok := workloads[*workload]
	if !ok || !sp.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *daemonBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -daemon, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		daemon: *daemonBin, work: *work, size: fullSize,
	}
	r, err := execute(drive, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := sp.resultFor(r, cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var untraced *record
	if cfg.traced && *recordPath != "" {
		untraced = findRecord(*recordPath, cfg)
	}
	printReport(os.Stdout, r, sp, untraced)
	if *recordPath != "" {
		if err := appendRecord(*recordPath, cfg, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a fresh scratch directory, removed after.
func execute(drive func(context.Context, *run) error, cfg config) (*run, error) {
	if err := os.MkdirAll(filepath.Join(cfg.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.work, "tmp"), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	r := &run{cfg: cfg, values: map[string]float64{}}
	r.printf("querylearn benchmark: workload %s, seed %d, %d s measured, trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	r.printf("environment: nproc %d, GOMAXPROCS %d, %s, commit %s, scratch filesystem %s, fsync batched",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), filesystem(dir))
	// Every daemon and helper a workload starts is stopped by the workload;
	// the deadline keeps a wedged daemon from outliving the run's budget.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window()+150*time.Second)
	defer cancel()
	if err := drive(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return r, nil
}

// printReport writes the human-readable report: environment, breakdowns,
// every declared metric with its unit, and any failures. A traced run also
// shows its end-to-end metrics, next to those of an untraced run of the
// same workload and seed when one is given: the difference is the tracing
// overhead.
func printReport(w io.Writer, r *run, sp *spec, untraced *record) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if r.cfg.traced {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range sp.PerLayer {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, r.values[m.Name], m.Unit)
		}
		fmt.Fprintln(w, "end-to-end metrics of this traced run:")
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
	}
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s", m.Name, r.values[m.Name], m.Unit)
		if u, ok := untraced.value(m.Name); ok && u != 0 {
			fmt.Fprintf(w, "  (untraced %.6g, tracing overhead %+.1f%%)", u, 100*(r.values[m.Name]-u)/u)
		}
		fmt.Fprintln(w)
	}
	var extra []string
	for name := range r.values {
		if _, ok := sp.metric(name); !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-28s %14.6g (reported only)\n", name, r.values[name])
	}
	fmt.Fprintf(w, "attempted %d, failed %d (failed_ratio %.6f)\n", r.attempted, r.failed, failedRatio(r))
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
}

func failedRatio(r *run) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// commit names the checkout's commit when the checkout is a git work tree;
// benchmark checkouts often are not.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(id))[:12]
		}
		return name
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// filesystem names the filesystem holding dir, from /proc/mounts.
func filesystem(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fsType := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if (abs == f[1] || strings.HasPrefix(abs, strings.TrimSuffix(f[1], "/")+"/")) && len(f[1]) > len(best) {
			best, fsType = f[1], f[2]
		}
	}
	return fsType
}

// record is one line of a -record file: a run's identity and result.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Trace    bool       `json:"trace"`
	Result   resultLine `json:"result"`
}

// findRecord returns the last untraced record of the same workload, seed
// and length in a record file, or nil.
func findRecord(path string, cfg config) *record {
	recs, err := readRecords(path)
	if err != nil {
		return nil
	}
	var found *record
	for i, rec := range recs {
		if !rec.Trace && rec.Workload == cfg.workload && rec.Seed == cfg.seed && rec.Seconds == cfg.seconds {
			found = &recs[i]
		}
	}
	return found
}

// value returns a metric of a record; a nil record has none.
func (rec *record) value(name string) (float64, bool) {
	if rec == nil {
		return 0, false
	}
	v, ok := rec.Result.Metrics[name]
	return v.Value, ok
}

func appendRecord(path string, cfg config, line resultLine) error {
	data, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.traced, Result: line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
