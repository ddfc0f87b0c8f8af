package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison between a parent (A) and a change (B).
const (
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// readRecords loads a -record file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// comparison is one workload × metric judged between two sets of runs.
type comparison struct {
	workload, metric string
	a, b             []float64
	wins, pairs      int
	verdict          string
}

// judge applies the rules of choosing-metrics §6.5 and §8 to one metric:
//
//   - the change regressed when its median is worse than the parent's by
//     more than the bound;
//   - where the parent's own spread (interquartile range over median) is
//     wider than the bound, the metric is unresolved, unless every run of
//     one side reads better than every run of the other;
//   - the change improved only when it wins at least nine tenths of the
//     seed-matched pairs (ties count for neither) and the medians differ by
//     more than the parent's interquartile range;
//   - otherwise it is unchanged.
//
// Losing nine tenths of the pairs is not made a regression: a commit
// compared with itself loses nine of ten pairs in a cell about once in a
// hundred comparisons, and a comparison judges 28 end-to-end cells.
//
// A metric without a bound (per-layer) is judged by the last two rules only.
func judge(a, b []float64, better string, bound float64, wins, pairs int) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	q1, am, q3 := quartiles(a)
	_, bm, _ := quartiles(b)
	sign := 1.0 // positive worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * (bm - am) / math.Abs(am)
	if am == 0 {
		worse = sign * (bm - am)
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	if bound > 0 {
		if am != 0 && (q3-q1)/math.Abs(am) > bound {
			switch {
			case allBetter:
				return verdictImproved
			case allWorse:
				return verdictRegressed
			}
			return verdictUnresolved
		}
		if worse > bound {
			return verdictRegressed
		}
	}
	if pairs > 0 && wins*10 >= 9*pairs && math.Abs(bm-am) > q3-q1 && worse < 0 {
		return verdictImproved
	}
	return verdictUnchanged
}

// pairUp matches A and B runs of one workload by seed, in run order, and
// counts the pairs B wins on a metric.
func pairUp(a, b []record, metric, better string) (wins, pairs int) {
	bySeed := map[int64][]float64{}
	for _, r := range b {
		if v, ok := r.Result.Metrics[metric]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	for _, r := range a {
		v, ok := r.Result.Metrics[metric]
		bs := bySeed[r.Seed]
		if !ok || len(bs) == 0 {
			continue
		}
		y := bs[0]
		bySeed[r.Seed] = bs[1:]
		pairs++
		if (better == "higher" && y > v.Value) || (better != "higher" && y < v.Value) {
			wins++
		}
	}
	return wins, pairs
}

// compare judges every workload × metric of the spec between record sets.
func compare(sp *spec, ra, rb []record) []comparison {
	var out []comparison
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			pick := func(rs []record) []record {
				var out []record
				for _, r := range rs {
					if r.Workload == w.Name && r.Trace == traced {
						out = append(out, r)
					}
				}
				return out
			}
			a, b := pick(ra), pick(rb)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			for _, m := range sp.metrics(traced) {
				c := comparison{workload: w.Name, metric: m.Name}
				for _, r := range a {
					if v, ok := r.Result.Metrics[m.Name]; ok {
						c.a = append(c.a, v.Value)
					}
				}
				for _, r := range b {
					if v, ok := r.Result.Metrics[m.Name]; ok {
						c.b = append(c.b, v.Value)
					}
				}
				c.wins, c.pairs = pairUp(a, b, m.Name, m.Better)
				c.verdict = judge(c.a, c.b, m.Better, m.Bound, c.wins, c.pairs)
				out = append(out, c)
			}
		}
	}
	return out
}

// compareFiles prints the comparison table and exits 1 when any
// end-to-end metric regressed.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) int {
	ra, err := readRecords(pathA)
	if err == nil {
		var rb []record
		if rb, err = readRecords(pathB); err == nil {
			return printComparison(w, sp, compare(sp, ra, rb))
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(w io.Writer, sp *spec, cs []comparison) int {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB wins\tbound\tverdict")
	regressed := 0
	for _, c := range cs {
		m, _ := sp.metric(c.metric)
		aq1, am, aq3 := quartiles(c.a)
		bq1, bm, bq3 := quartiles(c.b)
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g%%", m.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (n=%d)\t%.4g [%.4g, %.4g] (n=%d)\t%d/%d\t%s\t%s\n",
			c.workload, c.metric, m.Unit, am, aq1, aq3, len(c.a), bm, bq1, bq3, len(c.b), c.wins, c.pairs, bound, c.verdict)
		if c.verdict == verdictRegressed && m.Bound > 0 {
			regressed++
		}
	}
	tw.Flush()
	if regressed > 0 {
		fmt.Fprintf(w, "%d end-to-end metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}
