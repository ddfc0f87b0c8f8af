package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"querylearn/internal/graph"
	"querylearn/internal/loadgen"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/session"
	"querylearn/pkg/api"
)

// Dialogue is one interactive dialogue run in process on a session.Manager,
// the loop querylearnd serves: create the session from task text, ask the
// served questions, submit each question's votes as one answer batch, and
// read the cost from the manager's own accounting. It is the loop behind
// T7–T9 and the crowdjoin and geopaths examples.
type Dialogue struct {
	// Model and Task are what a client posts to create the session.
	Model, Task string
	// Limits optionally tightens the session's path limits.
	Limits *api.PathLimits
	// Pick chooses the question to ask among every informative one the
	// session serves; nil asks the first, the daemon's own order.
	Pick Picker
	// Vote is one worker's label for an item.
	Vote loadgen.Oracle
	// Votes is the number of workers asked per question: one, or an odd
	// count the manager reconciles by majority.
	Votes int
	// CostPerHIT prices one submitted label.
	CostPerHIT float64
}

// DialogueResult is the manager's account of a finished dialogue.
type DialogueResult struct {
	// Questions counts the items answered, HITs the labels charged.
	Questions, HITs int
	Cost            float64
	// Failed reports that the session rejected a batch as inconsistent; the
	// manager charges no HIT for it.
	Failed     bool
	Hypothesis session.Hypothesis
}

// Picker chooses the next question among the ones a session serves — an
// order the daemon does not serve, measured against its own. A picker sees
// what a client sees: the served questions, the verdict applied to each
// asked item, and the hypothesis served after it.
type Picker interface {
	// Pick returns the index in qs of the question to ask.
	Pick(qs []session.Question) (int, error)
	// Applied reports the verdict the session applied to the asked item and
	// the hypothesis it serves afterwards.
	Applied(verdict session.Answer, h session.Hypothesis) error
}

// Run creates the session on a fresh manager and asks until no informative
// question remains.
func (d Dialogue) Run() (DialogueResult, error) {
	votes := max(d.Votes, 1)
	if votes%2 == 0 {
		return DialogueResult{}, fmt.Errorf("experiments: %d votes can tie; ask an odd number of workers", votes)
	}
	reconcile := session.ReconcileNone
	if votes > 1 {
		reconcile = session.ReconcileMajority
	}
	s, err := session.NewManager(session.Config{CostPerHIT: d.CostPerHIT}).
		Create(d.Model, d.Task, session.CreateOptions{Limits: d.Limits})
	if err != nil {
		return DialogueResult{}, err
	}
	for {
		k := 1
		if d.Pick != nil {
			k = math.MaxInt
		}
		qs, err := s.Questions(k)
		if err != nil {
			return DialogueResult{}, err
		}
		if len(qs) == 0 {
			break
		}
		i := 0
		if d.Pick != nil {
			if i, err = d.Pick.Pick(qs); err != nil {
				return DialogueResult{}, err
			}
		}
		item := qs[i].Item
		batch := make([]session.Answer, votes)
		yes := 0
		for v := range batch {
			ans, err := d.Vote(item)
			if err != nil {
				return DialogueResult{}, err
			}
			batch[v] = session.Answer{Item: item, Positive: ans}
			if ans {
				yes++
			}
		}
		if _, err := s.Answer(batch, reconcile); errors.Is(err, session.ErrFailed) {
			break
		} else if err != nil {
			return DialogueResult{}, err
		}
		if d.Pick != nil {
			h, err := s.Hypothesis()
			if err != nil {
				return DialogueResult{}, err
			}
			if err := d.Pick.Applied(session.Answer{Item: item, Positive: 2*yes > votes}, h); err != nil {
				return DialogueResult{}, err
			}
		}
	}
	h, err := s.Hypothesis()
	if err != nil {
		return DialogueResult{}, err
	}
	st := s.Status()
	return DialogueResult{Questions: st.Answers, HITs: st.HITs, Cost: st.Cost, Failed: st.Failed != "", Hypothesis: h}, nil
}

// randomPicker asks a uniformly random served question.
type randomPicker struct{ rng *rand.Rand }

// RandomPicker asks a uniformly random served question, drawing from rng —
// the baseline the other orders are measured against.
func RandomPicker(rng *rand.Rand) Picker { return randomPicker{rng} }

func (p randomPicker) Pick(qs []session.Question) (int, error) { return p.rng.Intn(len(qs)), nil }

func (randomPicker) Applied(session.Answer, session.Hypothesis) error { return nil }

// joinPicker asks the served join question whose projected agreement set
// A(t) ∩ Pmax scores least by dist, the first on ties. Pmax, the most
// specific predicate the answers allow, is built up from the applied
// verdicts and checked against every served hypothesis.
type joinPicker struct {
	u    *rellearn.Universe
	pmax rellearn.PairSet
	dist func(agree, pmax int) int
}

// MaxAgreePicker asks the join question with the largest projected
// agreement set: a positive answer pins Pmax down by the smallest step, a
// negative one rules out the largest down-set.
func MaxAgreePicker(u *rellearn.Universe) Picker {
	return &joinPicker{u: u, pmax: u.Full(), dist: func(agree, _ int) int { return -agree }}
}

// HalfSplitPicker asks the join question whose projected agreement set is
// nearest half of Pmax — a binary search over the predicate lattice.
func HalfSplitPicker(u *rellearn.Universe) Picker {
	return &joinPicker{u: u, pmax: u.Full(), dist: func(agree, pmax int) int {
		d := agree - pmax/2
		if d < 0 {
			d = -d
		}
		return d
	}}
}

// agree decodes a join item into its tuple pair's agreement set.
func (p *joinPicker) agree(item json.RawMessage) (rellearn.PairSet, error) {
	var it struct{ Left, Right int }
	if err := json.Unmarshal(item, &it); err != nil {
		return nil, err
	}
	return p.u.Agree(it.Left, it.Right), nil
}

func (p *joinPicker) Pick(qs []session.Question) (int, error) {
	best, bestDist := 0, math.MaxInt
	for i, q := range qs {
		a, err := p.agree(q.Item)
		if err != nil {
			return 0, err
		}
		if d := p.dist(a.Intersect(p.pmax).Count(), p.pmax.Count()); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, nil
}

func (p *joinPicker) Applied(verdict session.Answer, h session.Hypothesis) error {
	if verdict.Positive {
		a, err := p.agree(verdict.Item)
		if err != nil {
			return err
		}
		p.pmax = p.pmax.Intersect(a)
	}
	served, err := joinPredicate(p.u, h.Query)
	if err != nil {
		return err
	}
	if !served.Equal(p.pmax) {
		return fmt.Errorf("experiments: session serves %q, picker tracks %v", h.Query, p.u.Decode(p.pmax))
	}
	return nil
}

// joinPredicate parses a served join hypothesis ("a0=b0 & a1=b1", or "true"
// for the empty predicate) into the universe's attribute-pair set.
func joinPredicate(u *rellearn.Universe, query string) (rellearn.PairSet, error) {
	var pairs []relational.AttrPair
	if query != "true" {
		for _, part := range strings.Split(query, " & ") {
			l, r, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("experiments: bad join hypothesis %q", query)
			}
			pairs = append(pairs, relational.AttrPair{Left: l, Right: r})
		}
	}
	return u.Encode(pairs)
}

// JoinAccuracy is the fraction of the instance's tuple pairs that a served
// join hypothesis labels like the goal predicate.
func JoinAccuracy(u *rellearn.Universe, goal rellearn.PairSet, h session.Hypothesis) (float64, error) {
	learned, err := joinPredicate(u, h.Query)
	if err != nil {
		return 0, err
	}
	total, agree := u.Left.Len()*u.Right.Len(), 0
	for li := 0; li < u.Left.Len(); li++ {
		for ri := 0; ri < u.Right.Len(); ri++ {
			if a := u.Agree(li, ri); goal.SubsetOf(a) == learned.SubsetOf(a) {
				agree++
			}
		}
	}
	if total == 0 {
		return 1, nil
	}
	return float64(agree) / float64(total), nil
}

// JoinTask renders two relations as a join task with no examples.
func JoinTask(l, r *relational.Relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "left %s %s\n", l.Name, strings.Join(l.Attrs, ","))
	l.Each(func(_ int, row []string) { fmt.Fprintf(&b, "lrow %s\n", strings.Join(row, ",")) })
	fmt.Fprintf(&b, "right %s %s\n", r.Name, strings.Join(r.Attrs, ","))
	r.Each(func(_ int, row []string) { fmt.Fprintf(&b, "rrow %s\n", strings.Join(row, ",")) })
	return b.String()
}

// JoinOracle labels a join item by the goal predicate.
func JoinOracle(u *rellearn.Universe, goal rellearn.PairSet) loadgen.Oracle {
	return func(item json.RawMessage) (bool, error) {
		var it struct{ Left, Right int }
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		return goal.SubsetOf(u.Agree(it.Left, it.Right)), nil
	}
}

// PathOracle labels a path item by the goal query on g.
func PathOracle(g *graph.Graph, goal graph.PathQuery) loadgen.Oracle {
	return func(item json.RawMessage) (bool, error) {
		var it struct{ Src, Dst string }
		if err := json.Unmarshal(item, &it); err != nil {
			return false, err
		}
		src, dst := g.NodeIndex(it.Src), g.NodeIndex(it.Dst)
		if src < 0 || dst < 0 {
			return false, fmt.Errorf("experiments: unknown node pair (%s, %s)", it.Src, it.Dst)
		}
		return g.Selects(goal, src, dst), nil
	}
}

// NoisyOracle is a crowd worker who answers like o but flips each label
// with probability rate, drawing from rng.
func NoisyOracle(o loadgen.Oracle, rate float64, rng *rand.Rand) loadgen.Oracle {
	return func(item json.RawMessage) (bool, error) {
		ans, err := o(item)
		if err != nil {
			return false, err
		}
		return ans != (rng.Float64() < rate), nil
	}
}
