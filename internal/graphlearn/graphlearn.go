// Package graphlearn implements learning of path queries on graph
// databases from positive and negative node-pair examples, and the
// interactive framework of §3's geographic use case: "the user has to
// select two vertices from the graph [...] Our algorithms compute what
// paths the user should be asked to label (as positive or negative example)
// in order to gather as many information as possible with few
// interactions". The paper's workload prior ("use query workload techniques
// to take advantage of the previously inferred paths") is not implemented:
// measured on T8's instances it asked no fewer questions than a plain
// split order.
//
// The hypothesis class is the path-query class of internal/graph:
// concatenations of edge labels and starred labels. The learner
// generalizes the shortest witness words of the positive pairs by run
// alignment; the interactive session maintains a finite version space of
// candidate generalizations of the seed example and asks only pairs the
// remaining candidates disagree on.
package graphlearn

import (
	"fmt"
	"sort"

	"querylearn/internal/graph"
)

// Example is a labeled node pair.
type Example struct {
	Src, Dst int
	Positive bool
}

// run is a maximal block of equal consecutive labels.
type run struct {
	label string
	count int
	star  bool // the block additionally admits arbitrarily many repeats
}

func runsOf(word []string) []run {
	var out []run
	for _, l := range word {
		if n := len(out); n > 0 && out[n-1].label == l {
			out[n-1].count++
			continue
		}
		out = append(out, run{label: l, count: 1})
	}
	return out
}

func runsToQuery(rs []run) graph.PathQuery {
	var q graph.PathQuery
	for _, r := range rs {
		for i := 0; i < r.count; i++ {
			q.Atoms = append(q.Atoms, graph.Atom{Label: r.label})
		}
		if r.star {
			q.Atoms = append(q.Atoms, graph.Atom{Label: r.label, Star: true})
		}
	}
	return q
}

// generalizeRuns aligns two run sequences and returns the most specific run
// sequence whose language includes both inputs' languages: matched runs
// keep the minimum fixed count (starred when counts differ or either input
// is starred), unmatched runs become pure stars (matching zero occurrences
// on the other side).
func generalizeRuns(a, b []run) []run {
	// LCS over labels, scored to prefer more matched runs.
	n, m := len(a), len(b)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			best := dp[i+1][j] // skip a[i]
			if dp[i][j+1] > best {
				best = dp[i][j+1] // skip b[j]
			}
			if a[i].label == b[j].label && dp[i+1][j+1]+1 > best {
				best = dp[i+1][j+1] + 1
			}
			dp[i][j] = best
		}
	}
	var out []run
	i, j := 0, 0
	for i < n && j < m {
		if a[i].label == b[j].label && dp[i][j] == dp[i+1][j+1]+1 {
			count := a[i].count
			if b[j].count < count {
				count = b[j].count
			}
			star := a[i].star || b[j].star || a[i].count != b[j].count
			out = append(out, run{label: a[i].label, count: count, star: star})
			i++
			j++
			continue
		}
		if dp[i][j] == dp[i+1][j] {
			out = append(out, run{label: a[i].label, count: 0, star: true})
			i++
		} else {
			out = append(out, run{label: b[j].label, count: 0, star: true})
			j++
		}
	}
	for ; i < n; i++ {
		out = append(out, run{label: a[i].label, count: 0, star: true})
	}
	for ; j < m; j++ {
		out = append(out, run{label: b[j].label, count: 0, star: true})
	}
	return mergeAdjacent(out)
}

// mergeAdjacent fuses neighbouring runs with equal labels (created by
// star-demotion) to keep the query canonical.
func mergeAdjacent(rs []run) []run {
	var out []run
	for _, r := range rs {
		if n := len(out); n > 0 && out[n-1].label == r.label {
			out[n-1].count += r.count
			out[n-1].star = out[n-1].star || r.star
			continue
		}
		out = append(out, r)
	}
	return out
}

// GeneralizeWords returns the most specific path query (within the class)
// accepting every input word.
func GeneralizeWords(words [][]string) (graph.PathQuery, error) {
	if len(words) == 0 {
		return graph.PathQuery{}, fmt.Errorf("graphlearn: no words to generalize")
	}
	acc := runsOf(words[0])
	for _, w := range words[1:] {
		acc = generalizeRuns(acc, runsOf(w))
	}
	return runsToQuery(acc), nil
}

// Learn generalizes the shortest witness words of the positive examples and
// verifies consistency with the negatives. The returned query selects every
// positive pair; ErrInconsistent is returned when it also selects a
// negative (the class cannot separate the examples from these witnesses).
func Learn(g *graph.Graph, examples []Example) (graph.PathQuery, error) {
	var words [][]string
	var q graph.PathQuery
	for _, e := range examples {
		if !e.Positive {
			continue
		}
		w := g.ShortestWord(e.Src, e.Dst)
		if w == nil {
			return q, fmt.Errorf("graphlearn: positive pair (%s,%s) is not connected",
				g.Node(e.Src), g.Node(e.Dst))
		}
		words = append(words, w)
	}
	if len(words) == 0 {
		return q, fmt.Errorf("graphlearn: need at least one positive example")
	}
	q, err := GeneralizeWords(words)
	if err != nil {
		return q, err
	}
	for _, e := range examples {
		if !e.Positive && g.Selects(q, e.Src, e.Dst) {
			return q, fmt.Errorf("graphlearn: %w: learned %s selects negative (%s,%s)",
				ErrInconsistent, q, g.Node(e.Src), g.Node(e.Dst))
		}
	}
	return q, nil
}

// ErrInconsistent marks example sets the generalization cannot separate.
var ErrInconsistent = fmt.Errorf("no consistent path query")

// CandidatesFromWord enumerates the finite hypothesis space the interactive
// session works over: for each run (l, c) of the seed witness word, either
// the exact block l^c or a generalization l^j.l* with 0 <= j <= c. The
// space contains the seed word itself and every star-generalization of it.
func CandidatesFromWord(word []string) []graph.PathQuery {
	rs := runsOf(word)
	var out []graph.PathQuery
	var rec func(i int, acc []run)
	rec = func(i int, acc []run) {
		if i == len(rs) {
			out = append(out, runsToQuery(mergeAdjacent(append([]run(nil), acc...))))
			return
		}
		r := rs[i]
		rec(i+1, append(acc, r)) // exact
		for j := 0; j <= r.count; j++ {
			rec(i+1, append(acc, run{label: r.label, count: j, star: true}))
		}
	}
	rec(0, nil)
	// Dedupe by string.
	seen := map[string]bool{}
	var uniq []graph.PathQuery
	for _, q := range out {
		if !seen[q.String()] {
			seen[q.String()] = true
			uniq = append(uniq, q)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].String() < uniq[j].String() })
	return uniq
}
