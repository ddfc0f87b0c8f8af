// Package loadgen is the open-loop load harness for querylearnd: Poisson
// arrivals over zipf-popular session slots driving mixed four-model
// dialogues, with latency measured against the wall clock rather than the
// previous response (so a saturating server shows up as a growing tail, not
// a politely slowed client). cmd/loadgen is the CLI; the T16 experiment
// runs the same engine in-process for BENCH_PR7-style saturation curves.
package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"

	"querylearn/internal/core"
	"querylearn/internal/rellearn"
	"querylearn/internal/xmltree"
)

// Oracle labels one wire question item, playing the paper's user.
type Oracle func(item json.RawMessage) (bool, error)

// Workload is one dialogue template: a model, a seed task for session
// creation, and the oracle that answers its questions to convergence.
type Workload struct {
	Model  string
	Task   string
	Oracle Oracle
	// Goal is the batch-learned target query, for transcripts.
	Goal string
}

// PrepareOracle learns the goal query from the full task in-process (the
// batch learner plays the user, the paper's simulation protocol), strips the
// task down to its seed, and returns the oracle that labels wire items
// against the goal. This is the workload half of querylearnd's replay mode,
// shared with the load generator.
func PrepareOracle(model, taskSrc string) (seedTask string, oracle Oracle, goal string, err error) {
	switch model {
	case "twig":
		return prepareTwig(taskSrc)
	case "join":
		return prepareJoin(taskSrc)
	case "path":
		return preparePath(taskSrc)
	case "schema":
		return prepareSchema(taskSrc)
	}
	return "", nil, "", fmt.Errorf("unknown model %q (want twig, join, path, or schema)", model)
}

// Builtin returns the four-model fixture workloads the load generator mixes
// by default: small tasks whose dialogues are a handful of requests each, so
// offered load translates into request rate rather than learner CPU.
func Builtin() ([]Workload, error) {
	fixtures := []struct{ model, task string }{
		{"twig", "doc <lib><book><title/><year/></book><book><title/></book></lib>\n" +
			"doc <lib><book><year/><title/></book></lib>\n" +
			"pos 0 /0/0\n"},
		{"join", "left P id,city\nlrow 1,lille\nlrow 2,paris\n" +
			"right O buyer,place\nrrow 1,lille\nrrow 2,rome\n" +
			"pos 0 0\n"},
		{"path", "edge lille highway paris\nedge paris highway lyon\n" +
			"edge lille ferry dover\npos lille lyon\n"},
		{"schema", "doc <r><a/><b/></r>\ndoc <r><a/><a/><b/></r>\n"},
	}
	out := make([]Workload, 0, len(fixtures))
	for _, f := range fixtures {
		seed, oracle, goal, err := PrepareOracle(f.model, f.task)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s fixture: %w", f.model, err)
		}
		out = append(out, Workload{Model: f.model, Task: seed, Oracle: oracle, Goal: goal})
	}
	return out, nil
}

func prepareTwig(src string) (string, Oracle, string, error) {
	task, err := core.ParseTwigTask(src)
	if err != nil {
		return "", nil, "", err
	}
	goal, err := core.LearnXMLQuery(task.Examples, core.XMLOptions{Schema: task.Schema})
	if err != nil {
		return "", nil, "", err
	}
	// Selection sets per document, by node pointer.
	selected := make([]map[*xmltree.Node]bool, len(task.Docs))
	for i, d := range task.Docs {
		selected[i] = map[*xmltree.Node]bool{}
		for _, n := range goal.Eval(d) {
			selected[i][n] = true
		}
	}
	var b strings.Builder
	for _, d := range task.Docs {
		fmt.Fprintf(&b, "doc %s\n", d.String())
	}
	if task.Schema != nil {
		for _, line := range strings.Split(strings.TrimSpace(task.Schema.String()), "\n") {
			fmt.Fprintf(&b, "schema %s\n", line)
		}
	}
	seeded := false
	for _, ex := range task.Examples {
		if !ex.Positive {
			continue
		}
		for di, d := range task.Docs {
			if d == ex.Doc {
				fmt.Fprintf(&b, "pos %d %s\n", di, core.NodePathOf(ex.Node))
				seeded = true
			}
		}
		if seeded {
			break
		}
	}
	if !seeded {
		return "", nil, "", fmt.Errorf("twig replay needs a positive example in the task")
	}
	oracle := func(item json.RawMessage) (bool, error) {
		var it struct {
			Doc  int    `json:"doc"`
			Path string `json:"path"`
		}
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		if it.Doc < 0 || it.Doc >= len(task.Docs) {
			return false, fmt.Errorf("question doc %d out of range", it.Doc)
		}
		node, err := core.ResolveNodePath(task.Docs[it.Doc], it.Path)
		if err != nil {
			return false, err
		}
		return selected[it.Doc][node], nil
	}
	return b.String(), oracle, goal.String(), nil
}

func prepareJoin(src string) (string, Oracle, string, error) {
	task, err := core.ParseJoinTask(src)
	if err != nil {
		return "", nil, "", err
	}
	if task.Semijoin {
		return "", nil, "", fmt.Errorf("join replay supports equi-join tasks only")
	}
	u := rellearn.NewUniverse(task.Left, task.Right)
	goalSet, ok := rellearn.JoinConsistent(u, task.Examples)
	if !ok {
		return "", nil, "", fmt.Errorf("no join predicate is consistent with the task examples")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "left %s %s\n", task.Left.Name, strings.Join(task.Left.Attrs, ","))
	task.Left.Each(func(_ int, row []string) { fmt.Fprintf(&b, "lrow %s\n", strings.Join(row, ",")) })
	fmt.Fprintf(&b, "right %s %s\n", task.Right.Name, strings.Join(task.Right.Attrs, ","))
	task.Right.Each(func(_ int, row []string) { fmt.Fprintf(&b, "rrow %s\n", strings.Join(row, ",")) })
	oracle := func(item json.RawMessage) (bool, error) {
		var it struct {
			Left  int `json:"left"`
			Right int `json:"right"`
		}
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		return goalSet.SubsetOf(u.Agree(it.Left, it.Right)), nil
	}
	pred := u.Decode(goalSet)
	parts := make([]string, len(pred))
	for i, p := range pred {
		parts[i] = p.String()
	}
	return b.String(), oracle, strings.Join(parts, " & "), nil
}

func preparePath(src string) (string, Oracle, string, error) {
	task, err := core.ParsePathTask(src)
	if err != nil {
		return "", nil, "", err
	}
	goal, err := core.LearnPathQuery(task.Graph, task.Examples)
	if err != nil {
		return "", nil, "", err
	}
	g := task.Graph
	var b strings.Builder
	for _, e := range g.Triples() {
		fmt.Fprintf(&b, "edge %s %s %s\n", e.From, e.Label, e.To)
	}
	seeded := false
	for _, ex := range task.Examples {
		if ex.Positive {
			fmt.Fprintf(&b, "pos %s %s\n", g.Node(ex.Src), g.Node(ex.Dst))
			seeded = true
			break
		}
	}
	if !seeded {
		return "", nil, "", fmt.Errorf("path replay needs a positive example in the task")
	}
	oracle := func(item json.RawMessage) (bool, error) {
		var it struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		}
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		src, dst := g.NodeIndex(it.Src), g.NodeIndex(it.Dst)
		if src < 0 || dst < 0 {
			return false, fmt.Errorf("question names unknown node (%s, %s)", it.Src, it.Dst)
		}
		return g.Selects(goal, src, dst), nil
	}
	return b.String(), oracle, goal.String(), nil
}

func prepareSchema(src string) (string, Oracle, string, error) {
	task, err := core.ParseSchemaTask(src)
	if err != nil {
		return "", nil, "", err
	}
	goal, err := core.LearnSchema(task.Docs)
	if err != nil {
		return "", nil, "", err
	}
	// Seed the session with the first document only; the dialogue must
	// rediscover the rest of the language.
	seedTask := fmt.Sprintf("doc %s\n", task.Docs[0].String())
	oracle := func(item json.RawMessage) (bool, error) {
		var it struct {
			Doc string `json:"doc"`
		}
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		doc, err := xmltree.Parse(it.Doc)
		if err != nil {
			return false, err
		}
		return goal.Valid(doc), nil
	}
	return seedTask, oracle, goal.String(), nil
}
