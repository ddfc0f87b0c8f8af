// geopaths runs the paper's §3 geographic use case: a user explores a road
// network, labels a few source/destination pairs, and the interactive
// learner infers the path query (e.g. "reachable by one highway hop then
// local roads") while asking as few questions as possible. The dialogues run
// in process on the session manager the daemon serves, and the example exits
// non-zero when one does not learn the goal. The learned result is finally
// published as XML — Figure 1's scenario 4.
//
//	go run ./examples/geopaths
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"querylearn/internal/core"
	"querylearn/internal/exchange"
	"querylearn/internal/experiments"
	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/pkg/api"
)

func main() {
	// The road network as the session sees it: a path task's edge lines.
	var edges strings.Builder
	for _, e := range graph.GenerateGeo(42, 60).Triples() {
		fmt.Fprintf(&edges, "edge %s %s %s\n", e.From, e.Label, e.To)
	}
	parsed, err := core.ParsePathTask(edges.String())
	if err != nil {
		log.Fatal(err)
	}
	g := parsed.Graph
	fmt.Printf("road network: %d cities, %d typed edges %v\n",
		g.NumNodes(), g.NumEdges(), g.Labels())

	// The hidden intent: destinations reachable by a highway hop followed
	// by any number of local roads.
	goal := graph.MustParsePathQuery("highway.road*")

	// The user picks two cities they care about: a pair the goal selects
	// whose shortest route shows the intended shape. It is picked on the
	// parsed graph, whose node order breaks shortest-route ties the way the
	// session's does.
	var seed graph.Pair
	found := false
	for _, p := range g.Eval(goal) {
		w := g.ShortestWord(p.Src, p.Dst)
		if len(w) >= 3 && w[0] == "highway" {
			ok := true
			for _, l := range w[1:] {
				if l != "road" {
					ok = false
					break
				}
			}
			if ok {
				seed, found = p, true
				break
			}
		}
	}
	if !found {
		log.Fatal("no goal-selected pair shows a highway hop then roads")
	}
	fmt.Printf("seed pair: %s -> %s (witness %v)\n",
		g.Node(seed.Src), g.Node(seed.Dst), g.ShortestWord(seed.Src, seed.Dst))
	task := edges.String() + fmt.Sprintf("pos %s %s\n", g.Node(seed.Src), g.Node(seed.Dst))

	for _, o := range []struct {
		name string
		pick experiments.Picker
	}{
		{"first", nil},
		{"random", experiments.RandomPicker(rand.New(rand.NewSource(1)))},
	} {
		res, err := experiments.Dialogue{
			Model: "path", Task: task, Limits: &api.PathLimits{PoolLimit: 1000},
			Pick: o.pick, Vote: experiments.PathOracle(g, goal),
		}.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy %-6s: %2d questions -> learned %s\n", o.name, res.Questions, res.Hypothesis.Query)
		if res.Hypothesis.Query != goal.String() {
			log.Fatalf("%s: the dialogue learned %s, not the goal %s", o.name, res.Hypothesis.Query, goal)
		}
	}

	// Scenario 4: publish the learned paths as XML.
	exs := []graphlearn.Example{{Src: seed.Src, Dst: seed.Dst, Positive: true}}
	res, err := exchange.Scenario4(g, exs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d paths as XML (root <%s>)\n",
		len(res.Document.Children), res.Document.Label)
}
