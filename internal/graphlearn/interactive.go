package graphlearn

import (
	"fmt"

	"querylearn/internal/bitset"
	"querylearn/internal/graph"
	"querylearn/internal/plan"
)

// layerSession names this layer in querylearn_plan_* metric labels.
const layerSession = "graphlearn.session"

// Interactive path-query learning. The session starts from one positive
// seed pair (the user's two chosen cities), builds the finite candidate
// space of generalizations of the seed's witness word, and asks the user to
// label node pairs the surviving candidates disagree on. Pairs on which all
// candidates agree are uninformative and never asked — the pruning that
// minimizes interactions.

// Session is the state of one interactive run. The version space is
// pool-projected and sparse: only the pairs that can ever be probed — the
// candidate pool, the seed, and any pair an answer later names — are
// interned into a compact pair-index universe, and each candidate's
// membership is a |universe|-bit set filled by one pool-restricted
// graph.EvalPairsMany call over all the candidates. Session memory is
// therefore O(candidates · |pool|) bits and creation runs one bit-parallel
// pass per 64 distinct pool sources (or destinations) for the candidates
// together, independent of the n² pair space that capped earlier versions
// at a few thousand nodes.
type Session struct {
	G          *graph.Graph
	Candidates []graph.PathQuery
	// universe is the interned probe-able pair space; slots maps a pair to
	// its index. Answers about pairs outside the initial universe grow it.
	universe []graph.Pair
	slots    map[graph.Pair]int
	// selects[i] is candidate i's membership over the universe.
	selects []*bitset.Set
	// selCount[i] caches the size of selects[i] for Result's tie-breaking.
	selCount []int
	labeled  *bitset.Set
	Pool     []graph.Pair
	// rec accumulates the session's planning work — evaluation-order
	// decisions, candidates eliminated before the pool-wide pass, plan time —
	// for the serving layer to drain into the request trace.
	rec *plan.Recorder
	// Stats
	Questions int
}

// PlanRecorder exposes the session's planner recorder so the serving layer
// can drain per-request planning time and decisions into its trace.
func (s *Session) PlanRecorder() *plan.Recorder { return s.rec }

// membershipFunc computes, for each query of a set, which of the pairs it
// selects. The production implementation is the shared-schedule
// graph.EvalPairsMany; the differential tests substitute a dense all-pairs
// oracle.
type membershipFunc func(g *graph.Graph, qs []graph.PathQuery, pairs []graph.Pair) [][]bool

// NewSession builds a session from a positive seed pair and a candidate
// pool of pairs the user may be asked about. The seed itself is treated as
// answered positively.
func NewSession(g *graph.Graph, seed graph.Pair, pool []graph.Pair) (*Session, error) {
	return newSession(g, seed, pool, nil, nil, nil)
}

// LabeledPair is a probe-able pair together with its known label — a task
// example replayed into a new session.
type LabeledPair struct {
	Pair     graph.Pair
	Positive bool
}

// NewSessionExamples is NewSession with the example replay fused into the
// build: the example pairs are interned into the universe, and one shared
// evaluation of every candidate on the labeled pairs alone — the seed and
// the examples — drops the candidates an example eliminates before the
// survivors' one shared evaluation over the whole universe, so an
// eliminated candidate never pays a pool-sized evaluation. The final
// session state is identical to a session over the same universe followed
// by Record of each example (per-pair verdicts are independent of the batch
// they are computed in).
func NewSessionExamples(g *graph.Graph, seed graph.Pair, pool []graph.Pair, examples []LabeledPair) (*Session, error) {
	return newSession(g, seed, pool, nil, examples, nil)
}

func newSession(g *graph.Graph, seed graph.Pair, pool, probes []graph.Pair, examples []LabeledPair, membership membershipFunc) (*Session, error) {
	word := g.ShortestWord(seed.Src, seed.Dst)
	if word == nil {
		return nil, fmt.Errorf("graphlearn: seed pair (%s,%s) is not connected",
			g.Node(seed.Src), g.Node(seed.Dst))
	}
	cands := CandidatesFromWord(word)
	s := &Session{G: g, Pool: pool, slots: make(map[graph.Pair]int, len(pool)+1), rec: new(plan.Recorder)}
	if membership == nil {
		// The session's recorder is threaded into the graph planner for
		// request-trace attribution.
		membership = func(g *graph.Graph, qs []graph.PathQuery, pairs []graph.Pair) [][]bool {
			return g.EvalPairsMany(qs, pairs, s.rec)
		}
	}
	intern := func(p graph.Pair) {
		if _, ok := s.slots[p]; !ok {
			s.slots[p] = len(s.universe)
			s.universe = append(s.universe, p)
		}
	}
	for _, p := range pool {
		intern(p)
	}
	for _, p := range probes {
		intern(p)
	}
	for _, e := range examples {
		intern(e.Pair)
	}
	intern(seed)
	s.labeled = bitset.New(len(s.universe))

	// Planned pre-pass: judge every candidate on the labeled pairs alone —
	// the seed plus the replayed examples — in one shared call, and drop
	// inconsistent ones before any of them pays the pool-wide evaluation.
	// The surviving set is exactly what the record() replays below would
	// keep, so the pre-pass changes evaluation cost, never state.
	survivors := cands
	if len(examples) > 0 {
		labeledPairs := make([]graph.Pair, 0, len(examples)+1)
		for _, e := range examples {
			labeledPairs = append(labeledPairs, e.Pair)
		}
		labeledPairs = append(labeledPairs, seed)
		survivors = survivors[:0:0]
		for c, verdicts := range membership(g, cands, labeledPairs) {
			ok := verdicts[len(examples)] // every candidate must select the seed
			for i := range examples {
				if !ok {
					break
				}
				if verdicts[i] != examples[i].Positive {
					ok = false
				}
			}
			if ok {
				survivors = append(survivors, cands[c])
			}
		}
		s.rec.Decide(layerSession, "pruned-before-pool", len(cands)-len(survivors))
		if len(survivors) == 0 {
			return nil, fmt.Errorf("graphlearn: answers eliminated every candidate (goal outside the class)")
		}
	}
	for c, verdicts := range membership(g, survivors, s.universe) {
		sel := bitset.New(len(s.universe))
		count := 0
		for id, in := range verdicts {
			if in {
				sel.Add(id)
				count++
			}
		}
		// Every candidate accepts the seed word, hence selects seed.
		s.Candidates = append(s.Candidates, survivors[c])
		s.selects = append(s.selects, sel)
		s.selCount = append(s.selCount, count)
	}
	seedID := s.slots[seed]
	if err := s.record(seedID, true); err != nil {
		return nil, err
	}
	s.labeled.Add(seedID)
	for i, e := range examples {
		id := s.slots[e.Pair]
		if err := s.record(id, e.Positive); err != nil {
			return nil, fmt.Errorf("graphlearn: replaying example %d: %w", i, err)
		}
		s.labeled.Add(id)
	}
	return s, nil
}

// ensureSlot interns a pair into the universe, extending every surviving
// candidate's membership set by its verdict on the new pair. Pool and probe
// pairs are interned at construction; this grows the universe only when an
// answer names a pair outside it (an arbitrary wire answer). Membership is
// judged by SelectsMany — sparse per-source runs over one shared scratch
// allocation, not a dense whole-graph pass or a per-candidate array.
func (s *Session) ensureSlot(p graph.Pair) int {
	if id, ok := s.slots[p]; ok {
		return id
	}
	id := len(s.universe)
	s.universe = append(s.universe, p)
	s.slots[p] = id
	s.labeled.Grow(id + 1)
	for i, in := range s.G.SelectsMany(s.Candidates, p.Src, p.Dst) {
		s.selects[i].Grow(id + 1)
		if in {
			s.selects[i].Add(id)
			s.selCount[i]++
		}
	}
	return id
}

// Informative reports whether surviving candidates disagree on the pair.
func (s *Session) Informative(p graph.Pair) bool {
	if len(s.Candidates) < 2 {
		return false
	}
	id, ok := s.slots[p]
	if !ok {
		// A pair outside the interned universe: answer from the graph
		// directly without growing the universe (Informative is a read).
		// Disagree streams the per-candidate verdicts and stops at the
		// first disagreement instead of materializing them all.
		return s.G.Disagree(s.Candidates, p.Src, p.Dst)
	}
	if s.labeled.Has(id) {
		return false
	}
	first := s.selects[0].Has(id)
	for _, sel := range s.selects[1:] {
		if sel.Has(id) != first {
			return true
		}
	}
	return false
}

// InformativeScan lists the informative pool pairs in pool order for
// question proposal: the pool is scanned in full (the total informative
// count is part of the wire contract), but at most limit pairs are
// materialized (limit <= 0 means all). A collapsed version space —
// fewer than two surviving candidates — exits before touching the pool:
// nothing can be informative once the survivors cannot disagree.
func (s *Session) InformativeScan(limit int) ([]graph.Pair, int) {
	if len(s.Candidates) < 2 {
		if len(s.Pool) > 0 {
			s.rec.EarlyStop(layerSession)
		}
		return nil, 0
	}
	var out []graph.Pair
	total := 0
	for _, p := range s.Pool {
		if s.Informative(p) {
			total++
			if limit <= 0 || len(out) < limit {
				out = append(out, p)
			}
		}
	}
	return out, total
}

// Record applies a user answer, filtering the version space. The pair is
// committed to the labeled set only after the answer applies cleanly, so a
// rejected (inconsistent) answer does not poison Informative for the pair.
func (s *Session) Record(p graph.Pair, positive bool) error {
	id := s.ensureSlot(p)
	if err := s.record(id, positive); err != nil {
		return err
	}
	s.labeled.Add(id)
	return nil
}

func (s *Session) record(id int, positive bool) error {
	var cands []graph.PathQuery
	var sels []*bitset.Set
	var counts []int
	for i, q := range s.Candidates {
		if s.selects[i].Has(id) == positive {
			cands = append(cands, q)
			sels = append(sels, s.selects[i])
			counts = append(counts, s.selCount[i])
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("graphlearn: answers eliminated every candidate (goal outside the class)")
	}
	s.Candidates, s.selects, s.selCount = cands, sels, counts
	return nil
}

// Result returns the most specific surviving candidate: the one selecting
// the fewest pairs of the interned universe (the pool plus every answered
// pair), ties broken by query string. Projecting specificity onto the
// universe instead of the full n² pair space keeps the measure computable on
// large graphs; at convergence all survivors agree on the whole pool, so the
// choice among them is indistinguishable by any probe-able pair.
func (s *Session) Result() graph.PathQuery {
	best := 0
	for i := range s.Candidates {
		ci, cb := s.selCount[i], s.selCount[best]
		if ci < cb || (ci == cb && s.Candidates[i].String() < s.Candidates[best].String()) {
			best = i
		}
	}
	return s.Candidates[best]
}

// DefaultPool returns the candidate pairs a user could reasonably be shown:
// every connected pair with a shortest path of at most maxLen edges, capped
// at limit pairs (0 = no cap). Sources are interleaved deterministically —
// round-robin in node order, one pair per source per round, over lazily
// advanced per-source BFS frontiers — so a truncating limit spreads the
// pool over many sources instead of exhausting the lowest-index sources
// first. The spread is not a sample of the whole graph: when at least limit
// sources have a pair (as on any graph with many more nodes than limit), the
// pool is the first pair of each of the first limit such sources.
func DefaultPool(g *graph.Graph, maxLen, limit int) []graph.Pair {
	n := g.NumNodes()
	var out []graph.Pair
	// active holds the sources whose BFS still has pairs to yield, in node
	// order; iterators are created lazily so a small limit over a huge graph
	// never materializes per-source state it will not use.
	var active []*poolIter
	for src := 0; src < n; src++ {
		it := newPoolIter(g, src, maxLen)
		p, ok := it.next()
		if !ok {
			continue
		}
		out = append(out, p)
		if limit > 0 && len(out) >= limit {
			return out
		}
		active = append(active, it)
	}
	for len(active) > 0 {
		live := active[:0]
		for _, it := range active {
			p, ok := it.next()
			if !ok {
				continue
			}
			out = append(out, p)
			if limit > 0 && len(out) >= limit {
				return out
			}
			live = append(live, it)
		}
		active = live
	}
	return out
}

// poolIter is one source's depth-bounded BFS, advanced one discovered pair
// at a time. Visited-set state is a map so a thousand live iterators over a
// million-node graph stay proportional to what they actually visited.
type poolIter struct {
	g      *graph.Graph
	src    int
	maxLen int
	queue  []poolItem
	qi     int
	seen   map[int]struct{}
}

type poolItem struct{ node, depth int }

func newPoolIter(g *graph.Graph, src, maxLen int) *poolIter {
	it := &poolIter{g: g, src: src, maxLen: maxLen, seen: map[int]struct{}{src: {}}}
	it.queue = append(it.queue, poolItem{src, 0})
	return it
}

// next yields the source's next BFS-discovered pair, in the same per-source
// order the original single-pass implementation produced.
func (it *poolIter) next() (graph.Pair, bool) {
	for it.qi < len(it.queue) {
		cur := it.queue[it.qi]
		it.qi++
		if cur.depth < it.maxLen {
			it.g.Out(cur.node, func(_ string, to int) {
				if _, ok := it.seen[to]; !ok {
					it.seen[to] = struct{}{}
					it.queue = append(it.queue, poolItem{to, cur.depth + 1})
				}
			})
		}
		if cur.node != it.src {
			return graph.Pair{Src: it.src, Dst: cur.node}, true
		}
	}
	it.queue, it.seen = nil, nil
	return graph.Pair{}, false
}
