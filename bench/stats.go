package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a reported tail percentile must leave at least
// this many raw samples above it, or it describes too few events to repeat.
const minBeyond = 10

// samples is a set of raw observations, each with the time it was taken.
// Every latency the benchmark reports is computed from these exact values,
// never from histogram buckets.
type samples struct {
	xs  []float64
	at  []time.Time
	srt []float64 // sorted copy of xs; nil after an add
}

func (s *samples) add(v float64) {
	s.xs = append(s.xs, v)
	s.at = append(s.at, time.Now())
	s.srt = nil
}

// addDur adds a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d.Nanoseconds()) / 1e6) }

func (s *samples) n() int { return len(s.xs) }

func (s *samples) merge(o *samples) {
	s.xs = append(s.xs, o.xs...)
	s.at = append(s.at, o.at...)
	s.srt = nil
}

func (s *samples) sorted() []float64 {
	if s.srt == nil {
		s.srt = append([]float64(nil), s.xs...)
		sort.Float64s(s.srt)
	}
	return s.srt
}

func (s *samples) quantile(q float64) float64 { return quantileSorted(s.sorted(), q) }

// sliced splits the samples into k consecutive time slices of equal length
// and returns the median over the slices of each slice's q-quantile. A
// stall of the shared machine then moves one slice's value, not the
// reported one — the run measures k times as much work as any one estimate
// needs and reports the median.
func (s *samples) sliced(q float64, k int) float64 {
	if k <= 1 || len(s.xs) == 0 {
		return s.quantile(q)
	}
	first, last := s.at[0], s.at[0]
	for _, t := range s.at {
		if t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	width := last.Sub(first)/time.Duration(k) + 1
	parts := make([][]float64, k)
	for i, t := range s.at {
		j := int(t.Sub(first) / width)
		parts[j] = append(parts[j], s.xs[i])
	}
	var qs []float64
	for _, p := range parts {
		if len(p) > 0 {
			sort.Float64s(p)
			qs = append(qs, quantileSorted(p, q))
		}
	}
	return median(qs)
}

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// beyond counts the samples strictly greater than the q-quantile.
func (s *samples) beyond(q float64) int {
	xs := s.sorted()
	v := quantileSorted(xs, q)
	i := sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	return len(xs) - i
}

// quantileSorted interpolates linearly between the two closest ranks of a
// sorted slice (the usual "type 7" estimator); exact on the raw samples.
func quantileSorted(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailCheck reports whether the q-quantile of s satisfies the tail rule.
func tailCheck(s *samples, q float64) error {
	if b := s.beyond(q); b < minBeyond {
		return fmt.Errorf("p%g has %d of %d samples beyond it (want >= %d)", q*100, b, s.n(), minBeyond)
	}
	return nil
}

// quartiles returns the three cut points of statistics.quantiles(xs, n=4) in
// Python's default "exclusive" method, so spreads computed here match the
// ones a Python reader of the same values gets.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
