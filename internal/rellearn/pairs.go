// Package rellearn implements learning of join-like relational queries from
// labeled examples, per §3 of the paper: natural-join/equi-join predicates
// (consistency decidable in PTIME via agreement sets), semijoins
// (consistency intractable; exact backtracking search plus a greedy
// approximation), and the interactive framework in which the learner picks
// the tuples to ask about, prunes tuples made uninformative by previous
// answers, and minimizes the number of user interactions.
package rellearn

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"querylearn/internal/relational"
)

// Universe enumerates the candidate equi-join conjuncts between two
// relations: every attribute pair (left attr, right attr). Predicates are
// subsets of the universe, represented as bitsets for the lattice
// operations the learner performs constantly.
type Universe struct {
	Left, Right *relational.Relation
	Pairs       []relational.AttrPair
	words       int
	// Interned evaluation core (built lazily by intern under mu): tuple
	// values as int32 ids so agreement sets compare integers instead of
	// strings, plus a cache of computed agreement rows. The cache is
	// bounded by agreeCacheLimit total pairs; past it, sets are
	// recomputed on demand (still over interned ids). The mutex keeps
	// concurrent Agree calls on a shared universe safe.
	mu                sync.Mutex
	leftIDs, rightIDs [][]int32
	agreeRows         [][]PairSet
}

// agreeCacheLimit caps the memoized agreement matrix at 1M tuple pairs.
const agreeCacheLimit = 1 << 20

// NewUniverse builds the pair universe of two relations.
func NewUniverse(l, r *relational.Relation) *Universe {
	u := &Universe{Left: l, Right: r}
	for _, la := range l.Attrs {
		for _, ra := range r.Attrs {
			u.Pairs = append(u.Pairs, relational.AttrPair{Left: la, Right: ra})
		}
	}
	u.words = (len(u.Pairs) + 63) / 64
	return u
}

// intern builds the value-id matrices on first use. Ids are shared across
// both relations so cross-relation equality is id equality.
func (u *Universe) intern() {
	if u.leftIDs != nil {
		return
	}
	ids := map[string]int32{}
	internRel := func(r *relational.Relation) [][]int32 {
		out := make([][]int32, r.Len())
		for i := 0; i < r.Len(); i++ {
			row := r.Tuple(i)
			enc := make([]int32, len(row))
			for j, v := range row {
				id, ok := ids[v]
				if !ok {
					id = int32(len(ids))
					ids[v] = id
				}
				enc[j] = id
			}
			out[i] = enc
		}
		return out
	}
	u.rightIDs = internRel(u.Right)
	u.leftIDs = internRel(u.Left)
	if u.Left.Len()*u.Right.Len() <= agreeCacheLimit {
		u.agreeRows = make([][]PairSet, u.Left.Len())
	}
}

// Size returns the number of candidate conjuncts.
func (u *Universe) Size() int { return len(u.Pairs) }

// PairSet is a subset of a universe's attribute pairs (a candidate join
// predicate), as a fixed-width bitset.
type PairSet []uint64

// Full returns the set of all pairs.
func (u *Universe) Full() PairSet {
	s := make(PairSet, u.words)
	for i := range u.Pairs {
		s[i/64] |= 1 << (i % 64)
	}
	return s
}

// EmptySet returns the empty pair set.
func (u *Universe) EmptySet() PairSet { return make(PairSet, u.words) }

// Clone copies the set.
func (s PairSet) Clone() PairSet {
	c := make(PairSet, len(s))
	copy(c, s)
	return c
}

// Intersect returns s ∩ t.
func (s PairSet) Intersect(t PairSet) PairSet {
	c := make(PairSet, len(s))
	for i := range s {
		c[i] = s[i] & t[i]
	}
	return c
}

// IntersectWith sets s to s ∩ t in place, avoiding the allocation of
// Intersect in accumulation loops.
func (s PairSet) IntersectWith(t PairSet) {
	for i := range s {
		s[i] &= t[i]
	}
}

// SubsetOf reports s ⊆ t.
func (s PairSet) SubsetOf(t PairSet) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s PairSet) Equal(t PairSet) bool {
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Count returns the cardinality.
func (s PairSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Has reports membership of pair index i.
func (s PairSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

// With returns s ∪ {i}.
func (s PairSet) With(i int) PairSet {
	c := s.Clone()
	c[i/64] |= 1 << (i % 64)
	return c
}

// Key returns a map key for the set.
func (s PairSet) Key() string {
	var b strings.Builder
	for _, w := range s {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// appendKey appends a compact binary key for the set to buf — the cheap
// replacement for Key in the semijoin search's memo table.
func (s PairSet) appendKey(buf []byte) []byte {
	for _, w := range s {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}

// Decode converts a pair set back to attribute pairs, sorted.
func (u *Universe) Decode(s PairSet) []relational.AttrPair {
	var out []relational.AttrPair
	for i, p := range u.Pairs {
		if s.Has(i) {
			out = append(out, p)
		}
	}
	return relational.SortPairs(out)
}

// Encode converts attribute pairs to a pair set; unknown pairs error.
func (u *Universe) Encode(pairs []relational.AttrPair) (PairSet, error) {
	s := u.EmptySet()
	for _, p := range pairs {
		found := false
		for i, q := range u.Pairs {
			if p == q {
				s[i/64] |= 1 << (i % 64)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("rellearn: pair %s outside the universe", p)
		}
	}
	return s, nil
}

// Agree returns the agreement set of a tuple pair: the pairs of attributes
// on which the two tuples carry equal values. A predicate P selects the
// pair exactly when P ⊆ Agree. Computed over interned value ids and
// memoized per tuple pair (treat the result as read-only); agreeNaive is
// the original string-comparing implementation, kept as the test oracle.
func (u *Universe) Agree(li, ri int) PairSet {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.intern()
	if u.agreeRows != nil {
		row := u.agreeRows[li]
		if row == nil {
			row = make([]PairSet, u.Right.Len())
			u.agreeRows[li] = row
		}
		if row[ri] == nil {
			row[ri] = u.agreeInterned(li, ri)
		}
		return row[ri]
	}
	return u.agreeInterned(li, ri)
}

func (u *Universe) agreeInterned(li, ri int) PairSet {
	s := make(PairSet, u.words)
	lrow := u.leftIDs[li]
	rrow := u.rightIDs[ri]
	idx := 0
	for _, lv := range lrow {
		for _, rv := range rrow {
			if lv == rv {
				s[idx>>6] |= 1 << (uint(idx) & 63)
			}
			idx++
		}
	}
	return s
}

// agreeNaive is the retained original: direct string comparison per
// attribute pair, a fresh set per call — the differential-testing oracle
// for the interned path.
func (u *Universe) agreeNaive(li, ri int) PairSet {
	s := u.EmptySet()
	lrow := u.Left.Tuple(li)
	rrow := u.Right.Tuple(ri)
	idx := 0
	for la := range u.Left.Attrs {
		for ra := range u.Right.Attrs {
			if lrow[la] == rrow[ra] {
				s[idx/64] |= 1 << (idx % 64)
			}
			idx++
		}
	}
	return s
}
