package rellearn

import (
	"fmt"
	"math/rand"

	"querylearn/internal/plan"
	"querylearn/internal/relational"
)

// The interactive framework of §3: "our learning algorithms choose tuples
// and then ask the user to label them as positive or negative examples.
// After each label given by the user, our algorithms infer the tuples which
// become uninformative w.r.t. the previously labeled tuples. The
// interactive process stops when all the tuples in the instance either have
// a label explicitly given by the user, or they have become uninformative.
// [...] The goal is to minimize the number of interactions with the user."
//
// The version space of join predicates consistent with the answers so far
// is represented by its unique most specific element Pmax (the intersection
// of the positive agreement sets) and the collection of negative agreement
// sets. A tuple pair t with agreement set A(t) is:
//
//   - certainly selected  iff A(t) ∩ Pmax = Pmax (every consistent P ⊆ Pmax ⊆ A(t));
//   - certainly rejected  iff A(t) ∩ Pmax ⊆ A(n) ∩ Pmax for some negative n
//     (every P ⊆ A(t) would also be ⊆ A(n), contradicting n's label);
//   - informative otherwise.
//
// Only informative pairs are worth an interaction; the rest are pruned.

// Oracle answers membership questions; the experiments use a hidden goal
// predicate, the crowdsourcing layer wraps this with noisy paid workers.
type Oracle interface {
	// LabelPair reports whether the goal query selects the tuple pair.
	LabelPair(li, ri int) bool
}

// FallibleOracle is an Oracle whose answers can fail mid-dialogue — a crowd
// worker who times out or abandons the HIT. Run asks through TryLabelPair
// when the oracle supports it, so a failed question surfaces as an error
// before it is counted (or, upstream, charged).
type FallibleOracle interface {
	Oracle
	TryLabelPair(li, ri int) (bool, error)
}

// GoalOracle is the standard simulation oracle: a hidden goal predicate.
type GoalOracle struct {
	U    *Universe
	Goal PairSet
}

// LabelPair implements Oracle: the pair is selected iff Goal ⊆ Agree.
func (o GoalOracle) LabelPair(li, ri int) bool {
	return o.Goal.SubsetOf(o.U.Agree(li, ri))
}

// Strategy selects the next question among informative candidates.
type Strategy interface {
	// Pick returns the index (into cands) of the pair to ask next.
	Pick(s *Session, cands []Candidate) int
	Name() string
}

// Candidate is an unlabeled, informative tuple pair.
type Candidate struct {
	Left, Right int
	Agree       PairSet // A(t) ∩ Pmax
}

// Session is the state of one interactive learning run.
type Session struct {
	U         *Universe
	Pmax      PairSet
	negatives []PairSet // A(n) ∩ Pmax, maximal only
	labeled   map[[2]int]bool
	// Stats
	Questions     int
	PrunedCertain int // pairs that became uninformative without being asked
}

// NewSession starts an interactive run over the universe's relations.
func NewSession(u *Universe) *Session {
	return &Session{U: u, Pmax: u.Full(), labeled: map[[2]int]bool{}}
}

// classify returns +1 (certainly selected), -1 (certainly rejected) or 0
// (informative) for a tuple pair.
func (s *Session) classify(li, ri int) int {
	at := s.U.Agree(li, ri).Intersect(s.Pmax)
	if at.Equal(s.Pmax) {
		return +1
	}
	for _, n := range s.negatives {
		if at.SubsetOf(n) {
			return -1
		}
	}
	return 0
}

// Candidates enumerates the informative unlabeled pairs.
func (s *Session) Candidates() []Candidate {
	out, _ := s.CandidatesLimited(0)
	return out
}

// CandidatesLimited is the streamed form of Candidates for batched question
// proposal: the scan still classifies every pair (the total informative
// count is part of the wire contract), but materializes at most limit
// candidate agreement sets (limit <= 0 means all). A collapsed version
// space — Pmax empty, every unlabeled pair certain — naturally yields zero
// candidates; the scan just stops allocating, which is where the win is on
// large universes asked for small batches.
func (s *Session) CandidatesLimited(limit int) ([]Candidate, int) {
	var out []Candidate
	total := 0
	for li := 0; li < s.U.Left.Len(); li++ {
		for ri := 0; ri < s.U.Right.Len(); ri++ {
			if s.labeled[[2]int{li, ri}] {
				continue
			}
			if s.classify(li, ri) != 0 {
				continue
			}
			total++
			if limit <= 0 || len(out) < limit {
				out = append(out, Candidate{Left: li, Right: ri,
					Agree: s.U.Agree(li, ri).Intersect(s.Pmax)})
			}
		}
	}
	return out, total
}

// Record applies a user answer to the version space.
func (s *Session) Record(li, ri int, positive bool) error {
	s.labeled[[2]int{li, ri}] = true
	at := s.U.Agree(li, ri)
	if positive {
		s.Pmax = s.Pmax.Intersect(at)
		// Re-project negative sets onto the new Pmax and check
		// consistency.
		var negs []PairSet
		for _, n := range s.negatives {
			pn := n.Intersect(s.Pmax)
			if pn.Equal(s.Pmax) {
				return fmt.Errorf("rellearn: answers are inconsistent (no join predicate fits)")
			}
			negs = append(negs, pn)
		}
		s.negatives = orderNegatives(maximalSets(negs))
		return nil
	}
	pn := at.Intersect(s.Pmax)
	if pn.Equal(s.Pmax) {
		return fmt.Errorf("rellearn: answers are inconsistent (no join predicate fits)")
	}
	s.negatives = orderNegatives(maximalSets(append(s.negatives, pn)))
	return nil
}

// orderNegatives sorts the negative down-sets largest-popcount-first —
// greedy most-selective-first, so classify's certainly-rejected probe hits
// the set most likely to contain a candidate's agreement set early. Pure
// evaluation-order planning: the any-of subset check is order-insensitive,
// so results are identical.
func orderNegatives(negs []PairSet) []PairSet {
	if len(negs) < 2 {
		return negs
	}
	idx := plan.Order(len(negs), func(i int) int { return -negs[i].Count() })
	out := make([]PairSet, len(negs))
	for i, j := range idx {
		out[i] = negs[j]
	}
	return out
}

// Result returns the most specific consistent predicate.
func (s *Session) Result() PairSet { return s.Pmax.Clone() }

// RunStats summarizes a completed interactive run.
type RunStats struct {
	Strategy      string
	Questions     int
	PrunedCertain int
	TotalPairs    int
	Learned       []relational.AttrPair
}

// Run drives the interactive loop until every pair is labeled or
// uninformative, asking the oracle at each step and pruning in between.
// On failure the returned stats still carry the questions asked up to the
// failure point — callers accounting for paid crowd work (internal/crowd)
// need them even when noise makes the answers inconsistent.
func Run(u *Universe, oracle Oracle, strat Strategy) (RunStats, error) {
	s := NewSession(u)
	total := u.Left.Len() * u.Right.Len()
	partial := func() RunStats {
		return RunStats{Strategy: strat.Name(), Questions: s.Questions, TotalPairs: total}
	}
	for {
		cands := s.Candidates()
		if len(cands) == 0 {
			break
		}
		pick := strat.Pick(s, cands)
		if pick < 0 || pick >= len(cands) {
			return partial(), fmt.Errorf("rellearn: strategy %s picked out of range", strat.Name())
		}
		c := cands[pick]
		var ans bool
		if f, ok := oracle.(FallibleOracle); ok {
			var err error
			if ans, err = f.TryLabelPair(c.Left, c.Right); err != nil {
				// The question was never answered: surface the failure
				// before counting it as an interaction.
				return partial(), fmt.Errorf("rellearn: oracle: %w", err)
			}
		} else {
			ans = oracle.LabelPair(c.Left, c.Right)
		}
		s.Questions++
		if err := s.Record(c.Left, c.Right, ans); err != nil {
			return partial(), err
		}
	}
	s.PrunedCertain = total - s.Questions
	return RunStats{
		Strategy:      strat.Name(),
		Questions:     s.Questions,
		PrunedCertain: s.PrunedCertain,
		TotalPairs:    total,
		Learned:       u.Decode(s.Pmax),
	}, nil
}

// RandomStrategy asks a uniformly random informative pair — the baseline
// the paper's smart strategies are measured against.
type RandomStrategy struct{ Rng *rand.Rand }

// Pick implements Strategy.
func (r RandomStrategy) Pick(_ *Session, cands []Candidate) int {
	return r.Rng.Intn(len(cands))
}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// MaxAgreeStrategy asks the informative pair with the largest projected
// agreement set: the maximal proper element of the candidate lattice, whose
// answer either pins Pmax down by the smallest step (positive) or
// eliminates the largest down-set (negative).
type MaxAgreeStrategy struct{}

// Pick implements Strategy.
func (MaxAgreeStrategy) Pick(_ *Session, cands []Candidate) int {
	best, bestCount := 0, -1
	for i, c := range cands {
		if n := c.Agree.Count(); n > bestCount {
			best, bestCount = i, n
		}
	}
	return best
}

// Name implements Strategy.
func (MaxAgreeStrategy) Name() string { return "max-agree" }

// HalfSplitStrategy asks the pair whose projected agreement set is nearest
// to half of Pmax — a binary-search flavour over the predicate lattice.
type HalfSplitStrategy struct{}

// Pick implements Strategy.
func (HalfSplitStrategy) Pick(s *Session, cands []Candidate) int {
	target := s.Pmax.Count() / 2
	best, bestDist := 0, 1<<30
	for i, c := range cands {
		d := c.Agree.Count() - target
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Name implements Strategy.
func (HalfSplitStrategy) Name() string { return "half-split" }
