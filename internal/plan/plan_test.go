package plan

import (
	"bytes"
	"testing"
	"time"

	"querylearn/internal/obs"
)

func TestPickFirstWinsOnTies(t *testing.T) {
	scores := []int{3, 7, 7, 1}
	if got := Pick(len(scores), func(i int) int { return scores[i] }); got != 1 {
		t.Fatalf("Pick = %d, want 1 (first of the tied maxima)", got)
	}
	if got := Pick(0, nil); got != -1 {
		t.Fatalf("Pick over empty = %d, want -1", got)
	}
	// Negative scores must not lose to the zero init.
	neg := []int{-5, -2, -9}
	if got := Pick(len(neg), func(i int) int { return neg[i] }); got != 1 {
		t.Fatalf("Pick over negatives = %d, want 1", got)
	}
}

func TestOrderStableCheapestFirst(t *testing.T) {
	costs := []int{4, 1, 4, 0, 1}
	got := Order(len(costs), func(i int) int { return costs[i] })
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order = %v, want %v", got, want)
		}
	}
}

func TestRecorderAccumulatesAndDrains(t *testing.T) {
	var r Recorder
	r.Decide("graph.evalpairs", "forward", 3)
	r.Decide("graph.evalpairs", "forward", 2)
	r.Decide("graph.evalpairs", "backward", 1)
	r.EarlyStop("graphlearn.session")
	r.AddPlanTime("graph.evalpairs", 5*time.Millisecond)
	d, ds, es := r.Drain()
	if d != 5*time.Millisecond {
		t.Fatalf("drained time %v", d)
	}
	if es != 1 {
		t.Fatalf("drained early stops %d", es)
	}
	if len(ds) != 2 || ds[0].N != 5 || ds[1].N != 1 {
		t.Fatalf("drained decisions %+v", ds)
	}
	// Drained recorder is empty.
	if d, ds, es := r.Drain(); d != 0 || ds != nil || es != 0 {
		t.Fatalf("second drain not empty: %v %v %d", d, ds, es)
	}
	// Nil recorder is safe everywhere.
	var nr *Recorder
	nr.Decide("x", "y", 1)
	nr.EarlyStop("x")
	nr.StartPlan("x")()
	if d, _, _ := nr.Drain(); d != 0 {
		t.Fatal("nil recorder drained nonzero")
	}
}

func TestMetricsLandInRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	Register(reg)
	defer mx.Store(nil)
	CountDecision("l", "c", 4)
	CountEarlyStop("l")
	ObservePlanTime("l", time.Millisecond)
	var r Recorder
	r.Decide("l", "c", 1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, buf.String())
	}
	if v, ok := exp.Value(obs.SeriesKey("querylearn_plan_decisions_total",
		map[string]string{"layer": "l", "choice": "c"})); !ok || v != 5 {
		t.Fatalf("plan decisions = %v (ok=%v)", v, ok)
	}
	if v, ok := exp.Value(obs.SeriesKey("querylearn_plan_early_stops_total",
		map[string]string{"layer": "l"})); !ok || v != 1 {
		t.Fatalf("plan early stops = %v (ok=%v)", v, ok)
	}
	if exp.Types["querylearn_plan_seconds"] != "histogram" {
		t.Fatal("querylearn_plan_seconds missing or not a histogram")
	}
}
