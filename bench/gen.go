package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"querylearn/internal/core"
	"querylearn/internal/experiments"
	"querylearn/internal/graph"
	"querylearn/internal/loadgen"
	"querylearn/internal/relational"
	"querylearn/internal/schema"
	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// models lists the four hypothesis classes in the order variants cycle
// through them.
var models = []string{"twig", "join", "path", "schema"}

// corpusSeed generates every task corpus, whatever the run's seed. The
// paper's cost, questions per dialogue, is a property of the task set, and
// the runs a comparison sets side by side use different seeds: with seeded
// tasks the cost moved by up to 7% between seeds and could not be held
// exact, and the tasks' mix moved CPU, throughput and memory with it. The
// run's seed drives the traffic over the corpus instead: arrival times, slot
// choices, dialogue order, and recover's session mix.
const corpusSeed = 0

// rngFor derives an independent deterministic stream for one input of one
// run, so adding an input never shifts the others.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + h + int64(i)*7919))
}

// label is one answer the oracle gave: the wire item and the verdict.
type label struct {
	Item     json.RawMessage `json:"item"`
	Positive bool            `json:"positive"`
}

// variant is one dialogue task: the seed task the daemon receives, the
// oracle that plays the user, and the check a converged hypothesis must
// pass. The program only ever sees seed and the oracle's answers.
type variant struct {
	id    int
	model string
	full  string // the task with every example; the goal was learned from it
	seed  string
	goal  string
	ask   loadgen.Oracle
	// check verifies a converged hypothesis against every label the oracle
	// gave during the dialogue.
	check func(query string, labels []label) error
}

// prepareVariant learns the goal from the full task in process (the paper's
// simulation protocol, via loadgen.PrepareOracle) and builds the check.
func prepareVariant(id int, model, full string) (*variant, error) {
	seed, oracle, goal, err := loadgen.PrepareOracle(model, full)
	if err != nil {
		return nil, fmt.Errorf("variant %d (%s): %w", id, model, err)
	}
	v := &variant{id: id, model: model, full: full, seed: seed, goal: goal, ask: oracle}
	v.check, err = hypothesisCheck(model, seed, goal)
	return v, err
}

// hypothesisCheck builds the verifier of converged hypotheses for a seed
// task: the hypothesis is re-parsed in its model's syntax and must agree
// with every label; a join hypothesis must equal the learned goal.
func hypothesisCheck(model, seed, goal string) (func(string, []label) error, error) {
	switch model {
	case "twig":
		task, err := core.ParseTwigTask(seed)
		if err != nil {
			return nil, err
		}
		return func(query string, labels []label) error {
			q, err := twig.ParseQuery(query)
			if err != nil {
				return err
			}
			return checkLabels(labels, func(raw json.RawMessage) (bool, error) {
				var it struct {
					Doc  int    `json:"doc"`
					Path string `json:"path"`
				}
				if err := json.Unmarshal(raw, &it); err != nil || it.Doc < 0 || it.Doc >= len(task.Docs) {
					return false, fmt.Errorf("bad twig item %s", raw)
				}
				node, err := core.ResolveNodePath(task.Docs[it.Doc], it.Path)
				if err != nil {
					return false, err
				}
				for _, n := range q.Eval(task.Docs[it.Doc]) {
					if n == node {
						return true, nil
					}
				}
				return false, nil
			})
		}, nil
	case "path":
		task, err := core.ParsePathTask(seed)
		if err != nil {
			return nil, err
		}
		return pathCheck(task.Graph), nil
	case "schema":
		return func(query string, labels []label) error {
			s, err := schema.ParseSchema(query)
			if err != nil {
				return err
			}
			return checkLabels(labels, func(raw json.RawMessage) (bool, error) {
				var it struct {
					Doc string `json:"doc"`
				}
				if err := json.Unmarshal(raw, &it); err != nil {
					return false, err
				}
				doc, err := xmltree.Parse(it.Doc)
				if err != nil {
					return false, err
				}
				return s.Valid(doc), nil
			})
		}, nil
	case "join":
		want := predicateSet(goal)
		return func(query string, _ []label) error {
			if got := predicateSet(query); got != want {
				return fmt.Errorf("join hypothesis %q, learned goal %q", query, goal)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown model %q", model)
}

// predicateSet normalises a rendered join predicate ("a=b & c=d", or "true"
// for the empty predicate) to a sorted conjunct list.
func predicateSet(p string) string {
	p = strings.TrimSpace(p)
	if p == "" || p == "true" {
		return ""
	}
	parts := strings.Split(p, "&")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	sort.Strings(parts)
	return strings.Join(parts, " & ")
}

func checkLabels(labels []label, selects func(json.RawMessage) (bool, error)) error {
	for _, l := range labels {
		got, err := selects(l.Item)
		if err != nil {
			return err
		}
		if got != l.Positive {
			return fmt.Errorf("hypothesis says %v on %s, the oracle said %v", got, l.Item, l.Positive)
		}
	}
	return nil
}

// smallVariants generates n fixture-sized dialogue tasks cycling through
// the four models: a handful of questions each, so request handling rather
// than learner CPU dominates a dialogue.
func smallVariants(n int) ([]*variant, error) {
	out := make([]*variant, n)
	for i := range out {
		model := models[i%len(models)]
		rng := rngFor(corpusSeed, "small-"+model, i)
		var full string
		switch model {
		case "twig":
			full = smallTwigTask(rng)
		case "join":
			full = smallJoinTask(rng)
		case "path":
			full = smallPathTask(rng)
		case "schema":
			full = smallSchemaTask(rng)
		}
		v, err := prepareVariant(i, model, full)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// smallTwigTask: two random documents over four labels; the positives are
// every node the child-axis label path of a random node selects.
func smallTwigTask(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d"}
	docs := make([]*xmltree.Node, 2)
	for i := range docs {
		root := xmltree.New("r")
		for j, n := 0, 2+rng.Intn(3); j < n; j++ {
			c := root.AddNew(labels[rng.Intn(len(labels))])
			for k, m := 0, rng.Intn(4); k < m; k++ {
				c.AddNew(labels[rng.Intn(len(labels))])
			}
		}
		docs[i] = root
	}
	nodes := docs[0].Nodes()[1:]
	target := nodes[rng.Intn(len(nodes))]
	goal := twig.MustParseQuery("/" + strings.Join(target.LabelsFromRoot(), "/"))
	return twigTaskText(docs, goal, "")
}

// twigTaskText renders a twig task whose positive examples are the nodes
// goal selects; schemaLines, if any, are appended verbatim.
func twigTaskText(docs []*xmltree.Node, goal twig.Query, schemaLines string) string {
	var b strings.Builder
	for _, d := range docs {
		fmt.Fprintf(&b, "doc %s\n", d.String())
	}
	for i, d := range docs {
		for _, n := range goal.Eval(d) {
			fmt.Fprintf(&b, "pos %d %s\n", i, core.NodePathOf(n))
		}
	}
	b.WriteString(schemaLines)
	return b.String()
}

// smallJoinTask: two 6-row relations over a 3-value domain; the examples
// come from a random one- or two-pair equi-join goal.
func smallJoinTask(rng *rand.Rand) string {
	for {
		l, r := experiments.RandomJoinInstance(rng.Int63(), 3, 6, 3)
		goal := randomPredicate(rng, l, r, 1+rng.Intn(2))
		if text, ok := joinTaskText(rng, l, r, goal, 3, 2); ok {
			return text
		}
	}
}

// randomPredicate draws k distinct attribute pairs.
func randomPredicate(rng *rand.Rand, l, r *relational.Relation, k int) []relational.AttrPair {
	var pred []relational.AttrPair
	seen := map[relational.AttrPair]bool{}
	for len(pred) < k {
		p := relational.AttrPair{Left: l.Attrs[rng.Intn(len(l.Attrs))], Right: r.Attrs[rng.Intn(len(r.Attrs))]}
		if !seen[p] {
			seen[p] = true
			pred = append(pred, p)
		}
	}
	return pred
}

// joinTaskText renders a join task with up to npos positive and nneg
// negative pairs labelled by goal. ok is false when goal joins no pair.
func joinTaskText(rng *rand.Rand, l, r *relational.Relation, goal []relational.AttrPair, npos, nneg int) (string, bool) {
	var pos, neg [][2]int
	for _, i := range rng.Perm(l.Len()) {
		for _, j := range rng.Perm(r.Len()) {
			ok, _ := relational.PairsMatch(l, l.Tuple(i), r, r.Tuple(j), goal)
			switch {
			case ok && len(pos) < npos:
				pos = append(pos, [2]int{i, j})
			case !ok && len(neg) < nneg:
				neg = append(neg, [2]int{i, j})
			}
		}
	}
	if len(pos) == 0 {
		return "", false
	}
	var b strings.Builder
	writeRelations(&b, l, r)
	for _, p := range pos {
		fmt.Fprintf(&b, "pos %d %d\n", p[0], p[1])
	}
	for _, p := range neg {
		fmt.Fprintf(&b, "neg %d %d\n", p[0], p[1])
	}
	return b.String(), true
}

func writeRelations(b *strings.Builder, l, r *relational.Relation) {
	fmt.Fprintf(b, "left %s %s\n", l.Name, strings.Join(l.Attrs, ","))
	l.Each(func(_ int, row []string) { fmt.Fprintf(b, "lrow %s\n", strings.Join(row, ",")) })
	fmt.Fprintf(b, "right %s %s\n", r.Name, strings.Join(r.Attrs, ","))
	r.Each(func(_ int, row []string) { fmt.Fprintf(b, "rrow %s\n", strings.Join(row, ",")) })
}

// smallPathTask: a 10-node graph with two out-edges per node over three
// labels; the positive example joins a node to one it reaches in 1-3 hops.
func smallPathTask(rng *rand.Rand) string {
	labels := []string{"a", "b", "c"}
	for {
		g := graph.New()
		const n = 10
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i))
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				j := rng.Intn(n)
				if j != i {
					g.AddEdge(fmt.Sprintf("n%d", i), labels[rng.Intn(len(labels))], fmt.Sprintf("n%d", j))
				}
			}
		}
		src := rng.Intn(n)
		var reach []int
		for dst := 0; dst < n; dst++ {
			if w := g.ShortestWord(src, dst); dst != src && len(w) >= 1 && len(w) <= 3 {
				reach = append(reach, dst)
			}
		}
		if len(reach) == 0 {
			continue
		}
		dst := reach[rng.Intn(len(reach))]
		return pathTaskText(g, []graph.Pair{{Src: src, Dst: dst}})
	}
}

// pathTaskText renders a path task: every edge, then the positive pairs.
func pathTaskText(g *graph.Graph, pos []graph.Pair) string {
	var b strings.Builder
	for _, e := range g.Triples() {
		fmt.Fprintf(&b, "edge %s %s %s\n", e.From, e.Label, e.To)
	}
	for _, p := range pos {
		fmt.Fprintf(&b, "pos %s %s\n", g.Node(p.Src), g.Node(p.Dst))
	}
	return b.String()
}

// smallSchemaTask: three documents sampled from a random five-label
// disjunctive multiplicity schema.
func smallSchemaTask(rng *rand.Rand) string {
	for {
		goal, _ := experiments.RandomDMSPair(rng.Int63(), 5)
		if text, ok := schemaTaskText(rng, goal, 3, 3); ok {
			return text
		}
	}
}

// schemaTaskText samples n documents of at most maxDepth from goal; ok is
// false when the first document is a bare root (nothing to learn).
func schemaTaskText(rng *rand.Rand, goal *schema.Schema, n, maxDepth int) (string, bool) {
	var b strings.Builder
	for i := 0; i < n; i++ {
		d := goal.Generate(rng, maxDepth)
		if d == nil || (i == 0 && len(d.Children) == 0) {
			return "", false
		}
		fmt.Fprintf(&b, "doc %s\n", d.String())
	}
	return b.String(), true
}

// pathGoal is the hidden query path-geo's simulated user answers for.
var pathGoal = graph.MustParsePathQuery("highway.road*")

// geoSeeds finds up to n distinct seed pairs whose shortest word is one
// highway hop followed by two or three road hops — the search T14 uses,
// started at a node rng picks.
func geoSeeds(g *graph.Graph, rng *rand.Rand, n int) []graph.Pair {
	var out []graph.Pair
	nodes := g.NumNodes()
	start := rng.Intn(nodes)
	for k := 0; k < nodes && len(out) < n; k++ {
		src := (start + k) % nodes
		mid, found := -1, false
		g.Out(src, func(label string, to int) {
			if !found && label == "highway" && to != src {
				mid, found = to, true
			}
		})
		if !found {
			continue
		}
		cur := mid
		for hop := 0; hop < 3; hop++ {
			next, ok := -1, false
			g.Out(cur, func(label string, to int) {
				if !ok && label == "road" && to != cur && to != src {
					next, ok = to, true
				}
			})
			if !ok {
				break
			}
			cur = next
			if hop == 0 {
				continue
			}
			if w := g.ShortestWord(src, cur); isHighwayRoads(w) {
				out = append(out, graph.Pair{Src: src, Dst: cur})
				break
			}
		}
	}
	return out
}

func isHighwayRoads(w []string) bool {
	if len(w) < 3 || w[0] != "highway" {
		return false
	}
	for _, l := range w[1:] {
		if l != "road" {
			return false
		}
	}
	return true
}

// pathItem resolves a wire path item to node indexes of g.
func pathItem(g *graph.Graph, raw json.RawMessage) (src, dst int, err error) {
	var it struct{ Src, Dst string }
	if err := json.Unmarshal(raw, &it); err != nil {
		return 0, 0, err
	}
	src, dst = g.NodeIndex(it.Src), g.NodeIndex(it.Dst)
	if src < 0 || dst < 0 {
		return 0, 0, fmt.Errorf("path item names unknown nodes: %s", raw)
	}
	return src, dst, nil
}

// pathCheck verifies a path hypothesis against labels on g.
func pathCheck(g *graph.Graph) func(string, []label) error {
	return func(query string, labels []label) error {
		q, err := graph.ParsePathQuery(query)
		if err != nil {
			return err
		}
		return checkLabels(labels, func(raw json.RawMessage) (bool, error) {
			src, dst, err := pathItem(g, raw)
			return err == nil && g.Selects(q, src, dst), err
		})
	}
}

// geoVariants builds path-geo's dialogue tasks: for each graph size,
// graphsPer geographic graphs, each with one seed pair, answered against
// pathGoal. Variants are ordered so consecutive dialogues rotate sizes.
func geoVariants(sizes []int, graphsPer int) ([]*variant, error) {
	var out []*variant
	for k := 0; k < graphsPer; k++ {
		for _, n := range sizes {
			rng := rngFor(corpusSeed, fmt.Sprintf("geo-%d", n), k)
			g := graph.GenerateGeo(rng.Int63(), n)
			pairs := geoSeeds(g, rng, 1)
			if len(pairs) == 0 {
				return nil, fmt.Errorf("geo graph of %d nodes has no seed pair", n)
			}
			text := pathTaskText(g, pairs)
			ask := func(raw json.RawMessage) (bool, error) {
				src, dst, err := pathItem(g, raw)
				return err == nil && g.Selects(pathGoal, src, dst), err
			}
			out = append(out, &variant{
				id: len(out), model: "path", full: text, seed: text,
				goal: pathGoal.String(), ask: ask, check: pathCheck(g),
			})
		}
	}
	return out, nil
}
