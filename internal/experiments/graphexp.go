package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"querylearn/internal/core"
	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/pkg/api"
)

// mixedSeed finds a goal-selected pair whose shortest word is one highway
// hop followed by at least two road hops (capped at 5 total): the goal
// highway.road* then lies in the candidate space and the candidates
// genuinely disagree on real pools (pure-star hypotheses collapse on the
// bidirectional highway backbone, where path lengths pump by +2).
func mixedSeed(g *graph.Graph, goal graph.PathQuery) (graph.Pair, bool) {
	var best graph.Pair
	bestLen := 0
	for _, p := range g.Eval(goal) {
		if p.Src == p.Dst {
			continue
		}
		w := g.ShortestWord(p.Src, p.Dst)
		if len(w) < 3 || len(w) > 5 || w[0] != "highway" {
			continue
		}
		ok := true
		for _, l := range w[1:] {
			if l != "road" {
				ok = false
				break
			}
		}
		if ok && len(w) > bestLen {
			best, bestLen = p, len(w)
		}
	}
	return best, bestLen > 0
}

// geoTask picks, among the GenerateGeo graphs of n cities from generator
// seeds 1–59, the one whose mixedSeed pair has the longest witness word, and
// renders it as a path task with that pair as its positive example. It
// returns the task, the task's parsed graph and the witness. The pair is
// picked on the parsed graph, not the generated one: the parser numbers
// nodes in the order the edge lines name them, and shortest words break ties
// by node order, so a pair picked on the generated graph can show the
// session another witness.
func geoTask(n int, goal graph.PathQuery) (string, *graph.Graph, []string, error) {
	var edges string
	var g *graph.Graph
	var seed graph.Pair
	var witness []string
	for s := int64(1); s < 60; s++ {
		var b strings.Builder
		for _, e := range graph.GenerateGeo(s*int64(n), n).Triples() {
			fmt.Fprintf(&b, "edge %s %s %s\n", e.From, e.Label, e.To)
		}
		task, err := core.ParsePathTask(b.String())
		if err != nil {
			return "", nil, nil, err
		}
		if p, ok := mixedSeed(task.Graph, goal); ok {
			if w := task.Graph.ShortestWord(p.Src, p.Dst); len(w) > len(witness) {
				edges, g, seed, witness = b.String(), task.Graph, p, w
			}
		}
	}
	if g == nil {
		return "", nil, nil, fmt.Errorf("no generator seed yielded a usable goal pair")
	}
	return edges + fmt.Sprintf("pos %s %s\n", g.Node(seed.Src), g.Node(seed.Dst)), g, witness, nil
}

// T8GraphInteractions measures interactive path-query learning on the geo
// use case by question order. Every dialogue runs on the served path
// learner; first is the order the daemon serves.
func T8GraphInteractions(scale int) *Table {
	t := &Table{
		ID:     "T8",
		Title:  "interactive path-query learning on the geographic graph",
		Claim:  "\"Our algorithms compute what paths the user should be asked to label [...] with few interactions\" (§3)",
		Header: []string{"cities", "edges", "seed len", "candidates", "strategy", "avg questions", "survivors", "learned"},
	}
	goal := graph.MustParsePathQuery("highway.road*")
	sizes := []int{30, 60, 120}
	if scale > 1 {
		sizes = append(sizes, 240)
	}
	for _, n := range sizes {
		task, g, witness, err := geoTask(n, goal)
		if err != nil {
			continue
		}
		orders := []struct {
			name string
			pick Picker
			runs int
		}{
			{"first", nil, 1},
			{"random", RandomPicker(rand.New(rand.NewSource(int64(n)))), 10},
		}
		for _, o := range orders {
			totalQ := 0
			var last DialogueResult
			ok := true
			for i := 0; i < o.runs && ok; i++ {
				last, err = Dialogue{
					Model: "path", Task: task, Limits: &api.PathLimits{PoolLimit: 1500},
					Pick: o.pick, Vote: PathOracle(g, goal),
				}.Run()
				ok = err == nil && !last.Failed
				totalQ += last.Questions
			}
			if !ok {
				continue
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(g.NumEdges()), fmt.Sprint(len(witness)),
				fmt.Sprint(len(graphlearn.CandidatesFromWord(witness))), o.name,
				fmt.Sprintf("%.1f", float64(totalQ)/float64(o.runs)),
				last.Hypothesis.Detail["survivors"], last.Hypothesis.Query,
			})
		}
	}
	t.Notes = append(t.Notes,
		"survivors and learned are the last run's; the question pool is the 1500 pairs DefaultPool yields within 5 hops")
	return t
}
