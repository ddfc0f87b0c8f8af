package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is BENCHMARK.json: the one place the workloads, the metrics, their
// units and their regression bounds are declared. The benchmark reads it at
// run time, so what it prints and what -compare judges cannot drift from the
// declaration.
type spec struct {
	Workloads []workload  `json:"workloads"`
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the declared metric set a run prints: end-to-end metrics
// for an untraced run, per-layer metrics for a traced one.
func (s *spec) metrics(traced bool) []metricDef {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) metric(name string) (metricDef, bool) {
	for _, m := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// resultLine is the benchmark's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFor projects a run's measured values onto the declared metric set.
// A declared metric the run did not measure is a benchmark bug, reported as
// an error rather than a made-up value.
func (s *spec) resultFor(r *run, traced bool) (resultLine, error) {
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range s.metrics(traced) {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
