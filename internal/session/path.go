package session

import (
	"encoding/json"
	"fmt"

	"querylearn/internal/core"
	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/plan"
)

// pathItem addresses a node pair on the wire by node names (stable across
// restarts, unlike interned indexes).
type pathItem struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// pathLearner adapts the graphlearn interactive session. The task's first
// positive example seeds the candidate space; further task examples are
// replayed as answers. The session's version space is pool-projected and
// sparse (see internal/graphlearn): memory is O(candidates · pool pairs) and
// creation runs one bit-parallel product pass per 64 distinct pool sources
// (or destinations), so graphs far beyond the old dense-bitset 4096-node
// ceiling are served. The effective
// pool shape and node cap come from the Limits the caller resolved (daemon
// flags, optionally tightened per request).
type pathLearner struct {
	decodeCache
	g    *graph.Graph
	sess *graphlearn.Session
}

func newPathLearner(src string, lim Limits) (*pathLearner, error) {
	task, err := core.ParsePathTask(src)
	if err != nil {
		return nil, err
	}
	seed := -1
	for i, ex := range task.Examples {
		if ex.Positive {
			seed = i
			break
		}
	}
	if seed < 0 {
		return nil, fmt.Errorf("session: path session needs at least one positive example as seed")
	}
	g := task.Graph
	if g.NumNodes() > lim.PathMaxNodes {
		return nil, fmt.Errorf("session: graph has %d nodes, above the %d-node session limit", g.NumNodes(), lim.PathMaxNodes)
	}
	pool := graphlearn.DefaultPool(g, lim.PathPoolMaxLen, lim.PathPoolLimit)
	// The task's examples are handed to the session with their labels:
	// they are interned with the pool (batched membership evaluation) AND
	// applied to the candidate space before the pool-wide pass, so a
	// candidate an example eliminates never pays a pool-sized evaluation.
	examples := make([]graphlearn.LabeledPair, 0, len(task.Examples))
	for i, ex := range task.Examples {
		if i == seed {
			continue
		}
		examples = append(examples, graphlearn.LabeledPair{
			Pair: graph.Pair{Src: ex.Src, Dst: ex.Dst}, Positive: ex.Positive})
	}
	sess, err := graphlearn.NewSessionExamples(g,
		graph.Pair{Src: task.Examples[seed].Src, Dst: task.Examples[seed].Dst}, pool, examples)
	if err != nil {
		return nil, fmt.Errorf("session: replaying path task examples: %w", err)
	}
	return &pathLearner{g: g, sess: sess}, nil
}

// PlanRecorder exposes the underlying session's planner recorder so the
// manager can fold planning work into the request trace.
func (l *pathLearner) PlanRecorder() *plan.Recorder { return l.sess.PlanRecorder() }

// Model implements Learner.
func (l *pathLearner) Model() string { return "path" }

// Propose implements Learner: the first k informative node pairs in the
// session's deterministic pool order. The scan materializes only the
// requested batch while still counting the total (the wire's Remaining
// field), and a collapsed version space skips the pool entirely.
func (l *pathLearner) Propose(k int) ([]Question, error) {
	lim := k
	if lim < 1 {
		lim = 1
	}
	inf, total := l.sess.InformativeScan(lim)
	if total == 0 {
		return nil, nil
	}
	qs := make([]Question, 0, clampBatch(k, total))
	for _, p := range inf[:clampBatch(k, total)] {
		item, err := json.Marshal(pathItem{Src: l.g.Node(p.Src), Dst: l.g.Node(p.Dst)})
		if err != nil {
			return nil, err
		}
		qs = append(qs, Question{
			Model: "path",
			Item:  item,
			Prompt: fmt.Sprintf("should the query select the pair (%s, %s)?",
				l.g.Node(p.Src), l.g.Node(p.Dst)),
			Remaining: total,
		})
	}
	return qs, nil
}

// resolve decodes an item and interns its node names.
func (l *pathLearner) resolve(raw json.RawMessage) (graph.Pair, error) {
	it, err := decodeItemCached[pathItem](&l.decodeCache, "path", raw)
	if err != nil {
		return graph.Pair{}, err
	}
	src, dst := l.g.NodeIndex(it.Src), l.g.NodeIndex(it.Dst)
	if src < 0 {
		return graph.Pair{}, fmt.Errorf("session: unknown node %q", it.Src)
	}
	if dst < 0 {
		return graph.Pair{}, fmt.Errorf("session: unknown node %q", it.Dst)
	}
	return graph.Pair{Src: src, Dst: dst}, nil
}

// Validate implements Learner.
func (l *pathLearner) Validate(raw json.RawMessage) error {
	_, err := l.resolve(raw)
	return err
}

// Record implements Learner.
func (l *pathLearner) Record(raw json.RawMessage, positive bool) error {
	p, err := l.resolve(raw)
	if err != nil {
		return err
	}
	if err := l.sess.Record(p, positive); err != nil {
		return err
	}
	l.sess.Questions++
	return nil
}

// Hypothesis implements Learner.
func (l *pathLearner) Hypothesis() (Hypothesis, error) {
	_, open := l.sess.InformativeScan(1) // convergence needs the count, not the pairs
	return Hypothesis{
		Model:     "path",
		Query:     l.sess.Result().String(),
		Converged: open == 0,
		Detail: map[string]string{
			"survivors": fmt.Sprint(len(l.sess.Candidates)),
			"pool":      fmt.Sprint(len(l.sess.Pool)),
			"questions": fmt.Sprint(l.sess.Questions),
		},
	}, nil
}
