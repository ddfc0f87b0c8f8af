package rellearn

import (
	"fmt"

	"querylearn/internal/plan"
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
	Questions int
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

// CandidatesLimited enumerates the informative unlabeled pairs in (left,
// right) scan order for question proposal: the scan classifies every pair
// (the total informative count is part of the wire contract), but
// materializes at most limit candidate agreement sets (limit <= 0 means
// all). A collapsed version space — Pmax empty, every unlabeled pair
// certain — naturally yields zero candidates; the scan just stops
// allocating, which is where the win is on large universes asked for small
// batches.
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
