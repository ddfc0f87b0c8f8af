package rellearn

import (
	"fmt"
	"math/bits"
	"sort"

	"querylearn/internal/plan"
)

// Consistency checking for join and semijoin examples — the complexity
// contrast at the heart of §3: "we have proved the tractability of some
// problems of interest, such as testing consistency of a set of positive
// and negative examples [for natural joins], a problem which is intractable
// in the context of semijoins."

// JoinExample is a labeled tuple pair: indices into the universe's left and
// right relations plus the user's label.
type JoinExample struct {
	Left, Right int
	Positive    bool
}

// MostSpecificJoin returns the most specific join predicate selecting all
// positive examples: the intersection of their agreement sets (the full
// universe when there are none).
func MostSpecificJoin(u *Universe, examples []JoinExample) PairSet {
	p := u.Full()
	for _, e := range examples {
		if e.Positive {
			p.IntersectWith(u.Agree(e.Left, e.Right))
		}
	}
	return p
}

// JoinConsistent decides in polynomial time whether some join predicate is
// consistent with the examples, returning the most specific witness. The
// characterization: P* = ∩ agree(positives) works iff it selects no
// negative, and if P* fails every weaker predicate fails too.
func JoinConsistent(u *Universe, examples []JoinExample) (PairSet, bool) {
	p := MostSpecificJoin(u, examples)
	for _, e := range examples {
		if !e.Positive && p.SubsetOf(u.Agree(e.Left, e.Right)) {
			return nil, false
		}
	}
	return p, true
}

// SemijoinExample is a labeled left tuple: the semijoin query selects a
// left tuple when some right tuple matches the predicate.
type SemijoinExample struct {
	Left     int
	Positive bool
}

// SemijoinStats reports the work done by the semijoin consistency search —
// the quantity whose growth the T6 benchmark measures.
type SemijoinStats struct {
	NodesExplored int
	Pruned        int
}

// SemijoinConsistent decides whether some semijoin predicate selects every
// positive left tuple (via some witness on the right) and no negative one.
// The problem is NP-complete; this is an exact backtracking search over
// witness choices with subset pruning, bounded by maxNodes (0 = 1<<20).
// It returns the found predicate, the decision, and search statistics; the
// error is non-nil only when the node budget is exhausted.
//
// The search runs over interned agreement sets with a compact binary memo
// key. When the universe fits one word (≤ 64 attribute pairs) and there are
// at most 64 positive examples — every instance the experiments generate —
// the planned search runs over plain uint64 candidates: it re-ranks the
// remaining example families at every node by the size of their best
// surviving witness intersection — greedy fail-first over live popcounts
// instead of the static up-front order — and short-circuits the instant the
// survivor set collapses to a state every remaining family accepts for free.
// Any other instance takes the static fail-first order over PairSets.
// SemijoinConsistentNaive is the retained original, the differential
// tests' oracle.
func SemijoinConsistent(u *Universe, examples []SemijoinExample, maxNodes int) (PairSet, bool, SemijoinStats, error) {
	if maxNodes == 0 {
		maxNodes = 1 << 20
	}
	stats := SemijoinStats{}
	forbidden, families, order, early, earlyOK := semijoinPrepare(u, examples)
	if early {
		if !earlyOK {
			return nil, false, stats, nil
		}
		return u.Full(), true, stats, nil
	}
	var result PairSet
	var found bool
	if u.words == 1 && len(families) <= 64 {
		plan.CountDecision(layerSemijoin, "dynamic", 1)
		result, found = semijoinDFS64Planned(u, forbidden, families, maxNodes, &stats)
	} else {
		plan.CountDecision(layerSemijoin, "static", 1)
		result, found = semijoinDFSWide(u, forbidden, families, order, maxNodes, &stats)
	}
	if !found && stats.NodesExplored > maxNodes {
		return nil, false, stats, fmt.Errorf("rellearn: semijoin search budget exhausted after %d nodes", stats.NodesExplored)
	}
	if !found {
		return nil, false, stats, nil
	}
	return result, true, stats, nil
}

// layerSemijoin names the semijoin search in querylearn_plan_* labels.
const layerSemijoin = "rellearn.semijoin"

// semijoinPrepare splits the examples, builds the forbidden down-sets and
// per-positive witness families, and picks the fail-first order. When there
// is no positive example the search degenerates: early reports that, with
// earlyOK the decision for the full predicate.
func semijoinPrepare(u *Universe, examples []SemijoinExample) (forbidden []PairSet, families [][]PairSet, order []int, early, earlyOK bool) {
	var pos, neg []int
	for _, e := range examples {
		if e.Positive {
			pos = append(pos, e.Left)
		} else {
			neg = append(neg, e.Left)
		}
	}
	// Forbidden down-sets: P must not be ⊆ of any negative agreement set.
	for _, n := range neg {
		for j := 0; j < u.Right.Len(); j++ {
			forbidden = append(forbidden, u.Agree(n, j))
		}
	}
	// Dedupe before the quadratic maximal-set filter: agreement sets repeat
	// heavily on small value domains, and maximalSets keeps the first of
	// equals anyway, so this changes nothing but the cost.
	forbidden = maximalSetsFast(dedupeSets(forbidden))
	if len(pos) == 0 {
		// Any predicate selecting no negative works; try the full set.
		full := u.Full()
		bad := false
		for _, f := range forbidden {
			if full.SubsetOf(f) {
				bad = true
				break
			}
		}
		return nil, nil, nil, true, !(len(neg) > 0 && bad)
	}
	// Witness families per positive: maximal agreement sets suffice.
	families = make([][]PairSet, len(pos))
	for i, t := range pos {
		var fam []PairSet
		for j := 0; j < u.Right.Len(); j++ {
			fam = append(fam, u.Agree(t, j))
		}
		fam = maximalSetsFast(dedupeSets(fam))
		// Larger agreement sets first: keeps candidates big.
		sort.Slice(fam, func(a, b int) bool { return fam[a].Count() > fam[b].Count() })
		families[i] = fam
	}
	// Order positives by family size (fail-first).
	order = make([]int, len(pos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(families[order[a]]) < len(families[order[b]]) })
	return forbidden, families, order, false, false
}

// semijoinDFS64Planned is the greedily-planned single-word search. Instead
// of the static up-front family order, every node re-ranks the remaining
// example families by the popcount of their best surviving witness
// intersection with the current candidate and descends into the most
// constrained one (fail-first on live numbers). Families whose best witness
// keeps the candidate whole are "free" — satisfiable without shrinking the
// version space — and when every remaining family is free the search stops
// mid-flight and returns the candidate. Dynamic ordering breaks the static
// path's depth-keyed memo, so the memo key becomes (remaining-family mask,
// candidate); the planned path is limited to ≤ 64 families for that mask.
func semijoinDFS64Planned(u *Universe, forbidden []PairSet, families [][]PairSet, maxNodes int, stats *SemijoinStats) (PairSet, bool) {
	forb := make([]uint64, len(forbidden))
	for i, f := range forbidden {
		forb[i] = f[0]
	}
	fams := make([][]uint64, len(families))
	for i, fam := range families {
		fams[i] = make([]uint64, len(fam))
		for j, a := range fam {
			fams[i][j] = a[0]
		}
	}
	seen := make(map[[2]uint64]struct{})
	var result uint64
	var dfs func(mask, cand uint64) bool
	dfs = func(mask, cand uint64) bool {
		stats.NodesExplored++
		if stats.NodesExplored > maxNodes {
			return false
		}
		for _, f := range forb {
			if cand&^f == 0 {
				stats.Pruned++
				return false
			}
		}
		if mask == 0 {
			result = cand
			return true
		}
		// Greedy re-rank over live popcounts: each remaining family scores
		// as its best surviving witness intersection; the smallest score is
		// the most constrained family and is searched first. A family whose
		// best witness contains the whole candidate is free — it cannot
		// shrink the version space — and stays in the mask unexplored until
		// either every remaining family is free (stop: cand is the answer)
		// or a shrunken candidate makes it binding again.
		candPop := bits.OnesCount64(cand)
		pick, pickBest := -1, 0
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			best := -1
			for _, a := range fams[i] {
				if c := bits.OnesCount64(cand & a); c > best {
					best = c
					if c == candPop {
						break
					}
				}
			}
			if best == candPop {
				continue // free family
			}
			if pick < 0 || best < pickBest {
				pick, pickBest = i, best
			}
		}
		if pick < 0 {
			// Version space collapsed: every remaining family is satisfied
			// by cand as-is. The static search would walk them all.
			plan.CountEarlyStop(layerSemijoin)
			result = cand
			return true
		}
		key := [2]uint64{mask, cand}
		if _, ok := seen[key]; ok {
			stats.Pruned++
			return false
		}
		seen[key] = struct{}{}
		rest := mask &^ (uint64(1) << uint(pick))
		for _, a := range fams[pick] {
			if dfs(rest, cand&a) {
				return true
			}
			if stats.NodesExplored > maxNodes {
				return false
			}
		}
		return false
	}
	all := uint64(1)<<uint(len(fams)) - 1 // len == 64 wraps to ^0 as intended
	if !dfs(all, u.Full()[0]) {
		return nil, false
	}
	return PairSet{result}, true
}

// semijoinDFSWide is the static-order search at any universe width: PairSet
// candidates with a compact binary memo key instead of the hex-formatted
// string of the naive path, and otherwise the naive search's exact tree.
func semijoinDFSWide(u *Universe, forbidden []PairSet, families [][]PairSet, order []int, maxNodes int, stats *SemijoinStats) (PairSet, bool) {
	seen := make(map[string]struct{})
	var keyBuf []byte
	bad := func(p PairSet) bool {
		for _, f := range forbidden {
			if p.SubsetOf(f) {
				return true
			}
		}
		return false
	}
	var result PairSet
	var dfs func(depth int, cand PairSet) bool
	dfs = func(depth int, cand PairSet) bool {
		stats.NodesExplored++
		if stats.NodesExplored > maxNodes {
			return false
		}
		if bad(cand) {
			stats.Pruned++
			return false
		}
		if depth == len(order) {
			result = cand
			return true
		}
		keyBuf = append(keyBuf[:0], byte(depth), byte(depth>>8))
		keyBuf = cand.appendKey(keyBuf)
		if _, ok := seen[string(keyBuf)]; ok {
			stats.Pruned++
			return false
		}
		seen[string(keyBuf)] = struct{}{}
		for _, a := range families[order[depth]] {
			if dfs(depth+1, cand.Intersect(a)) {
				return true
			}
			if stats.NodesExplored > maxNodes {
				return false
			}
		}
		return false
	}
	if !dfs(0, u.Full()) {
		return nil, false
	}
	return result, true
}

// SemijoinConsistentNaive is the retained original implementation —
// string-comparing agreement sets, fmt-formatted memo keys, allocation per
// search node — kept verbatim as the differential-testing oracle and the
// baseline the T6 benchmark measures the optimized search against.
func SemijoinConsistentNaive(u *Universe, examples []SemijoinExample, maxNodes int) (PairSet, bool, SemijoinStats, error) {
	if maxNodes == 0 {
		maxNodes = 1 << 20
	}
	var pos, neg []int
	for _, e := range examples {
		if e.Positive {
			pos = append(pos, e.Left)
		} else {
			neg = append(neg, e.Left)
		}
	}
	stats := SemijoinStats{}
	// Forbidden down-sets: P must not be ⊆ of any negative agreement set.
	var forbidden []PairSet
	for _, n := range neg {
		for j := 0; j < u.Right.Len(); j++ {
			forbidden = append(forbidden, u.agreeNaive(n, j))
		}
	}
	forbidden = maximalSets(forbidden)
	bad := func(p PairSet) bool {
		for _, f := range forbidden {
			if p.SubsetOf(f) {
				return true
			}
		}
		return false
	}
	if len(pos) == 0 {
		// Any predicate selecting no negative works; try the full set.
		p := u.Full()
		if len(neg) > 0 && bad(p) {
			return nil, false, stats, nil
		}
		return p, true, stats, nil
	}
	// Witness families per positive: maximal agreement sets suffice.
	families := make([][]PairSet, len(pos))
	for i, t := range pos {
		var fam []PairSet
		for j := 0; j < u.Right.Len(); j++ {
			fam = append(fam, u.agreeNaive(t, j))
		}
		fam = maximalSets(fam)
		// Larger agreement sets first: keeps candidates big.
		sort.Slice(fam, func(a, b int) bool { return fam[a].Count() > fam[b].Count() })
		families[i] = fam
	}
	// Order positives by family size (fail-first).
	order := make([]int, len(pos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(families[order[a]]) < len(families[order[b]]) })

	seen := map[string]bool{}
	var result PairSet
	var dfs func(depth int, cand PairSet) bool
	dfs = func(depth int, cand PairSet) bool {
		stats.NodesExplored++
		if stats.NodesExplored > maxNodes {
			return false
		}
		if bad(cand) {
			stats.Pruned++
			return false
		}
		if depth == len(order) {
			result = cand
			return true
		}
		key := fmt.Sprintf("%d|%s", depth, cand.Key())
		if seen[key] {
			stats.Pruned++
			return false
		}
		seen[key] = true
		for _, a := range families[order[depth]] {
			if dfs(depth+1, cand.Intersect(a)) {
				return true
			}
			if stats.NodesExplored > maxNodes {
				return false
			}
		}
		return false
	}
	found := dfs(0, u.Full())
	if !found && stats.NodesExplored > maxNodes {
		return nil, false, stats, fmt.Errorf("rellearn: semijoin search budget exhausted after %d nodes", stats.NodesExplored)
	}
	if !found {
		return nil, false, stats, nil
	}
	return result, true, stats, nil
}

// SemijoinGreedy is the polynomial-time approximation: each positive picks
// the witness keeping the running intersection largest. It may miss a
// consistent predicate the exact search finds (the ablation bench
// quantifies how often). The witness choice is plan.Pick — the planner's
// one shared greedy argmax, first-wins on ties, which is exactly the tie
// rule the pre-planner ad-hoc loop implemented.
func SemijoinGreedy(u *Universe, examples []SemijoinExample) (PairSet, bool) {
	var pos, neg []int
	for _, e := range examples {
		if e.Positive {
			pos = append(pos, e.Left)
		} else {
			neg = append(neg, e.Left)
		}
	}
	cand := u.Full()
	for _, t := range pos {
		j := plan.Pick(u.Right.Len(), func(j int) int {
			return cand.Intersect(u.Agree(t, j)).Count()
		})
		if j < 0 {
			return nil, false // empty right relation
		}
		cand = cand.Intersect(u.Agree(t, j))
	}
	for _, n := range neg {
		for j := 0; j < u.Right.Len(); j++ {
			if cand.SubsetOf(u.Agree(n, j)) {
				return nil, false
			}
		}
	}
	return cand, true
}

// dedupeSets removes duplicate sets, keeping the first occurrence — the
// same first-of-equals rule maximalSets applies, at linear cost.
func dedupeSets(sets []PairSet) []PairSet {
	if len(sets) < 2 {
		return sets
	}
	out := sets[:0:0]
	if len(sets[0]) == 1 {
		// Linear scan against the survivors: unique agreement sets are few,
		// and this avoids a throwaway map per call.
		for _, s := range sets {
			dup := false
			for _, t := range out {
				if t[0] == s[0] {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, s)
			}
		}
		return out
	}
	seen := make(map[string]struct{}, len(sets))
	var buf []byte
	for _, s := range sets {
		buf = s.appendKey(buf[:0])
		if _, ok := seen[string(buf)]; ok {
			continue
		}
		seen[string(buf)] = struct{}{}
		out = append(out, s)
	}
	return out
}

// maximalSetsFast is maximalSets with a word-level fast path for
// single-word universes. Inputs are pre-deduped, so the first-of-equals
// tie rule of the original never fires; the result set and order are
// identical to maximalSets on the same input.
func maximalSetsFast(sets []PairSet) []PairSet {
	if len(sets) < 2 {
		return sets
	}
	if len(sets[0]) != 1 {
		return maximalSets(sets)
	}
	var out []PairSet
	for i, s := range sets {
		sw := s[0]
		maximal := true
		for j, t := range sets {
			if i == j {
				continue
			}
			if sw&^t[0] == 0 && t[0]&^sw != 0 {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// maximalSets keeps only the ⊆-maximal sets of the input.
func maximalSets(sets []PairSet) []PairSet {
	var out []PairSet
	for i, s := range sets {
		maximal := true
		for j, t := range sets {
			if i == j {
				continue
			}
			if s.SubsetOf(t) && !t.SubsetOf(s) {
				maximal = false
				break
			}
			if s.Equal(t) && j < i {
				maximal = false // dedupe: keep the first of equals
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}
