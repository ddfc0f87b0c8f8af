package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1000, 0}, // exactly 1µs
		{1001, 1}, // just over
		{2000, 1}, // 2µs
		{2001, 2},
		{1_000_000, 10},     // 1ms: 1000<<10 = 1.024ms ≥ 1ms, 1000<<9 = 512µs < 1ms
		{1_000_000_000, 20}, // 1s: 1000<<20 ≈ 1.049s
		{int64(1000) << 26, 26},
		{int64(1000)<<26 + 1, histBuckets}, // overflow
		{math.MaxInt64, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
		// The bucket must actually contain the value.
		if c.want < histBuckets {
			upper := int64(histBaseNS) << c.want
			if c.ns > upper {
				t.Errorf("bucketIndex(%d) -> bucket %d with upper %d, value above it", c.ns, c.want, upper)
			}
			if c.want > 0 {
				lower := int64(histBaseNS) << (c.want - 1)
				if c.ns <= lower {
					t.Errorf("bucketIndex(%d) -> bucket %d but fits bucket %d", c.ns, c.want, c.want-1)
				}
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniformly 1ms..1000ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	wantMean := 0.5005
	if math.Abs(s.Mean()-wantMean) > 1e-9 {
		t.Errorf("mean = %v, want %v", s.Mean(), wantMean)
	}
	// Log buckets resolve to a factor of 2: check each quantile lands within
	// [q/2, 2q] of the true value.
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := s.Quantile(q)
		want := q // true quantile of uniform(0,1]s in seconds
		if got < want/2 || got > want*2 {
			t.Errorf("q%v = %v, want within 2x of %v", q, got, want)
		}
	}
	if got := s.Quantile(1); got != s.MaxSeconds {
		t.Errorf("q1 = %v, want max %v", got, s.MaxSeconds)
	}
	if s.MaxSeconds != 1.0 {
		t.Errorf("max = %v, want 1.0", s.MaxSeconds)
	}
}

func TestHistogramQuantileClampedToMax(t *testing.T) {
	var h Histogram
	// A single 1.5ms observation lands in the (1.024ms, 2.048ms] bucket;
	// interpolation must not report above the recorded max.
	h.Observe(1500 * time.Microsecond)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got > s.MaxSeconds {
		t.Errorf("q99 = %v exceeds max %v", got, s.MaxSeconds)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Errorf("empty snapshot not zero: %+v", s)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks nothing is lost; run under -race this is the concurrency proof.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const per = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	wantMax := float64((goroutines*per - 1)) * 1e-6
	if s.MaxSeconds != wantMax {
		t.Errorf("max = %v, want %v", s.MaxSeconds, wantMax)
	}
}

func TestRegistryIdempotentAndPanics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests_total", "reqs")
	c2 := r.Counter("requests_total", "reqs")
	if c1 != c2 {
		t.Error("re-registering a counter returned a different instance")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Error("counter instances not shared")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("type collision did not panic")
			}
		}()
		r.Gauge("requests_total", "now a gauge")
	}()

	v := r.CounterVec("errs_total", "errs", "endpoint", "code")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label-count mismatch did not panic")
			}
		}()
		v.With("answers")
	}()

	v.With("answers", "invalid_answer").Add(3)
	v.With("query", "not_found").Inc()
	var got []string
	v.Each(func(labels []string, value int64) {
		got = append(got, strings.Join(labels, "/"))
	})
	if len(got) != 2 || got[0] != "answers/invalid_answer" || got[1] != "query/not_found" {
		t.Errorf("Each order = %v", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestPrometheusExpositionLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("querylearn_boots_total", "process boots").Inc()
	hv := r.HistogramVec("querylearn_http_request_seconds", "request latency", "endpoint", "status")
	hv.With("answers", "200").Observe(2 * time.Millisecond)
	hv.With("answers", "200").Observe(40 * time.Millisecond)
	hv.With(`que"ry`, "404").Observe(time.Millisecond) // label escaping
	r.Gauge("querylearn_sessions_live", "live sessions").Set(7)
	r.GaugeFunc("querylearn_go_goroutines", "goroutines", func() float64 { return 42 })
	r.Histogram("querylearn_store_fsync_seconds", "fsync latency").Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not lint:\n%s\nerr: %v", buf.String(), err)
	}
	if exp.Types["querylearn_http_request_seconds"] != "histogram" {
		t.Error("histogram TYPE missing")
	}
	if v, ok := exp.Value(`querylearn_sessions_live`); !ok || v != 7 {
		t.Errorf("sessions_live = %v (present=%v), want 7", v, ok)
	}
	if v, ok := exp.Value(`querylearn_go_goroutines`); !ok || v != 42 {
		t.Errorf("goroutines gauge fn = %v (present=%v), want 42", v, ok)
	}
	if v, ok := exp.Value(SeriesKey("querylearn_http_request_seconds_count",
		map[string]string{"endpoint": "answers", "status": "200"})); !ok || v != 2 {
		t.Errorf("answers count = %v (present=%v), want 2", v, ok)
	}
	// Families must come out sorted by name.
	var names []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			names = append(names, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("families out of order: %v", names)
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"querylearn_x 1\n",                         // sample before TYPE
		"# TYPE a counter\na 1\na 2\n",             // duplicate series
		"# TYPE a counter\na{l=\"v\"} notafloat\n", // bad value
		"# TYPE 9bad counter\n",                    // bad name
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n", // decreasing
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition accepted %q", in)
		}
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace("req-1")
	tr.Add("admission.wait", 2*time.Millisecond)
	done := tr.StartPhase("journal.append")
	time.Sleep(time.Millisecond)
	done()
	ph := tr.Phases()
	if len(ph) != 2 || ph[0].Name != "admission.wait" || ph[1].Name != "journal.append" {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[1].Duration <= 0 || ph[1].Seconds <= 0 {
		t.Errorf("journal.append phase has no duration: %+v", ph[1])
	}

	// nil-trace paths must be no-ops, not panics.
	var nilTr *Trace
	nilTr.Add("x", time.Second)
	nilTr.StartPhase("y")()
	if nilTr.Phases() != nil {
		t.Error("nil trace has phases")
	}

	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("FromContext lost the trace")
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext invented a trace")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 32 || a == b {
		t.Errorf("request ids: %q, %q", a, b)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var h1, h2 Histogram
	h1.Observe(time.Millisecond)
	h2.Observe(time.Second)
	s := h1.Snapshot()
	s.Merge(h2.Snapshot())
	if s.Count != 2 {
		t.Errorf("merged count = %d", s.Count)
	}
	if s.MaxSeconds != 1.0 {
		t.Errorf("merged max = %v", s.MaxSeconds)
	}
	if math.Abs(s.SumSeconds-1.001) > 1e-9 {
		t.Errorf("merged sum = %v", s.SumSeconds)
	}
}
