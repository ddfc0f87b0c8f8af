package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantilesAreExactOnRawSamples(t *testing.T) {
	s := &samples{}
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	if got := s.quantile(0.5); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := s.quantile(0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
	if got := s.beyond(0.9); got != 10 {
		t.Errorf("samples beyond p90 of 1..100 = %d, want 10", got)
	}
	if err := tailCheck(s, 0.9); err != nil {
		t.Errorf("p90 of 100 samples should meet the tail rule: %v", err)
	}
	if err := tailCheck(s, 0.95); err == nil {
		t.Error("p95 of 100 samples leaves 5 beyond; the tail rule should reject it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSlicedMedianIgnoresOneStalledSlice(t *testing.T) {
	s := &samples{}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		v := 1.0
		if i >= 900 {
			v = 50 // the last tenth of the window stalls
		}
		s.xs = append(s.xs, v)
		s.at = append(s.at, start.Add(time.Duration(i)*time.Millisecond))
	}
	if got := s.quantile(0.95); got != 50 {
		t.Fatalf("whole-window p95 = %v, want the stall (50)", got)
	}
	if got := s.sliced(0.95, 10); got != 1 {
		t.Errorf("median of slice p95s = %v, want 1", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	a := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 9.9, 10.1}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		b      []float64
		better string
		bound  float64
		wins   int
		want   string
	}{
		{"slower by more than the bound", shift(a, 1.3), "lower", 0.1, 0, verdictRegressed},
		{"faster in every pair", shift(a, 0.8), "lower", 0.1, 10, verdictImproved},
		{"same runs", a, "lower", 0.1, 0, verdictUnchanged},
		{"slower within the bound", shift(a, 1.05), "lower", 0.1, 0, verdictUnchanged},
		{"higher is better", shift(a, 1.3), "higher", 0.1, 10, verdictImproved},
		{"lower throughput", shift(a, 0.7), "higher", 0.1, 0, verdictRegressed},
		{"faster but too few pairs won", shift(a, 0.97), "lower", 0.1, 8, verdictUnchanged},
		{"no bound, per-layer", shift(a, 1.5), "lower", 0, 0, verdictUnchanged},
	}
	for _, c := range cases {
		if got := judge(a, c.b, c.better, c.bound, c.wins, len(a)); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	// questions_per_dialogue repeats exactly; one more question over the
	// 256 mix-open tasks must count as a regression under its bound.
	exact := []float64{4.0117, 4.0117, 4.0117, 4.0117, 4.0117}
	if got := judge(exact, []float64{4.0156, 4.0156, 4.0156, 4.0156, 4.0156}, "lower", 0.0001, 0, 5); got != verdictRegressed {
		t.Errorf("one more question under an exact bound: judge = %s, want %s", got, verdictRegressed)
	}
	if got := judge(exact, exact, "lower", 0.0001, 0, 5); got != verdictUnchanged {
		t.Errorf("identical question counts: judge = %s, want %s", got, verdictUnchanged)
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got := judge(noisy, shift(noisy, 1.05), "lower", 0.1, 3, 10); got != verdictUnresolved {
		t.Errorf("a spread wider than the bound: judge = %s, want %s", got, verdictUnresolved)
	}
	if got := judge(noisy, []float64{30, 31, 32}, "lower", 0.1, 0, 3); got != verdictRegressed {
		t.Errorf("every change run worse than every parent run: judge = %s, want %s", got, verdictRegressed)
	}
}

func TestCompareRecords(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64, p50 float64) record {
		ms := map[string]metricValue{}
		for _, m := range sp.EndToEnd {
			ms[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		ms["op_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
		return record{Workload: "mix-open", Seed: seed, Seconds: 1, Result: resultLine{Correct: true, Attempted: 1, Metrics: ms}}
	}
	var a, b []record
	for s := int64(1); s <= 10; s++ {
		a = append(a, mk(s, 1+float64(s)/1000))
		b = append(b, mk(s, 2+float64(s)/1000))
	}
	var out bytes.Buffer
	if code := printComparison(&out, sp, compare(sp, a, b)); code != 1 {
		t.Errorf("a doubled p50 should fail the comparison, exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "op_p50_ms") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("comparison does not report the regressed metric:\n%s", out.String())
	}
	out.Reset()
	if code := printComparison(&out, sp, compare(sp, a, a)); code != 0 {
		t.Errorf("identical record sets should compare clean, exit %d\n%s", code, out.String())
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := schedule(7, 2*time.Second), schedule(7, 2*time.Second); !reflect.DeepEqual(a, b) {
		t.Error("arrival schedules differ for one seed")
	} else if c := schedule(8, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Error("arrival schedules of two seeds are identical")
	}

	// The task corpora do not follow the seed: generating them twice must
	// give the same tasks.
	texts := func(vs []*variant) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.model, v.full, v.seed, v.goal)
		}
		return out
	}
	small := func() []string {
		vs, err := smallVariants(16)
		if err != nil {
			t.Fatal(err)
		}
		return texts(vs)
	}
	if !reflect.DeepEqual(small(), small()) {
		t.Error("small variants differ between two generations")
	}
	geo := func() []string {
		vs, err := geoVariants([]int{1000}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return texts(vs)
	}
	if !reflect.DeepEqual(geo(), geo()) {
		t.Error("path-geo tasks differ between two generations")
	}
	corpus := func() []batchTask {
		c, err := batchCorpus()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if !reflect.DeepEqual(corpus(), corpus()) {
		t.Error("batch corpora differ between two generations")
	}

	vs, err := smallVariants(16)
	if err != nil {
		t.Fatal(err)
	}
	journal := func(seed int64) []string {
		sessions, _, err := writeCorpus(t.TempDir(), seed, vs, 50)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range sessions {
			out = append(out, s.v.seed)
			for _, l := range s.prior {
				out = append(out, string(l.Item))
			}
		}
		return out
	}
	if a := journal(3); !reflect.DeepEqual(a, journal(3)) {
		t.Error("recover corpora differ for one seed")
	} else if reflect.DeepEqual(a, journal(4)) {
		t.Error("recover corpora of two seeds are identical")
	}
}

// TestMixOpenCountsWarmupFailures releases one action before the measured
// window against an address nothing listens on: the failure must count,
// while the action stays out of the timed samples.
func TestMixOpenCountsWarmupFailures(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	r := &run{values: map[string]float64{}}
	now := time.Now()
	m := &mixOpen{
		r: r, sdk: newSDK("http://"+addr, newHTTPClient(nil)),
		variants: []*variant{{model: "twig", seed: "doc r\n"}},
		slots:    []*slot{{}}, window: now.Add(time.Hour),
		lat: map[string]*samples{}, abandoned: map[string]bool{},
	}
	m.execute(context.Background(), job{slot: 0, due: now, release: now})
	if r.attempted != 1 || r.failed != 1 {
		t.Errorf("warm-up action against a dead address: attempted %d, failed %d; want 1, 1", r.attempted, r.failed)
	}
	if m.ops != 0 || len(m.lat) != 0 {
		t.Errorf("a warm-up action was timed: %d ops, %d latency sets", m.ops, len(m.lat))
	}
}

// smokeSize keeps every workload's set-up to about a second.
var smokeSize = sizes{mixWarmup: 200 * time.Millisecond, geoGraphs: 1, recoverPerSecond: 1000}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at smoke
// size against a freshly built querylearnd, and checks that each declared
// metric is measured and printed with its unit and that nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds querylearnd and runs every workload")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin := filepath.Join(work, "querylearnd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/querylearnd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building querylearnd: %v\n%s", err, out)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			// Two seconds, not one: mix-open's lateness guard takes the p99
			// of the window's arrivals, and in one second a single 10 ms
			// stall of the host makes more than 1% of them late.
			cfg := config{workload: w.Name, seed: 1, seconds: 2, traced: traced, daemon: bin, work: work, size: smokeSize}
			r, err := execute(workloads[w.Name], cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			line, err := sp.resultFor(r, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", w.Name, traced, line.Correct, line.Failed, line.Attempted, r.problems)
			}
			var out bytes.Buffer
			printReport(&out, r, sp, nil)
			for _, m := range sp.metrics(traced) {
				if !strings.Contains(out.String(), m.Name) || line.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s not reported with unit %s", w.Name, traced, m.Name, m.Unit)
				}
			}
			if !strings.Contains(out.String(), "failed_ratio 0.000000") {
				t.Errorf("%s (traced %v): failed_ratio is not 0:\n%s", w.Name, traced, out.String())
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s: result line does not encode: %v", w.Name, err)
			}
		}
	}
}

// TestRunnerRefusesIncompleteCheckout runs the benchmark command in a
// directory holding only BENCHMARK.json and the benchmark's files: it must
// fail without printing a result.
func TestRunnerRefusesIncompleteCheckout(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"BENCHMARK.json", "bench/run.sh", "bench/go.mod"} {
		data, err := os.ReadFile(filepath.Join("..", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "mix-open", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Error("run.sh succeeded outside a full checkout")
	}
	if stdout.Len() != 0 {
		t.Errorf("run.sh printed a result outside a full checkout: %q", stdout.String())
	}
}
