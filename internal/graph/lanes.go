// Bit-parallel multi-source evaluation behind EvalPairs and EvalPairsStream,
// after Then et al., "The More the Merrier: Efficient Multi-Source Graph
// Traversal" (PVLDB 8(4), 2014).
//
// A lane is one bit of a uint64 and tracks one source (or, backward, one
// destination); a pass carries up to 64 lanes through the query's chain
// automaton at once. Every node holds the lane mask of the current state, and
// an atom turns it into the next state's masks: a plain atom ORs each mask
// one hop along the label, a starred atom closes the masks over the label's
// strongly connected components (Tarjan's condensation, built lazily from the
// nodes a pass touches), so a pass visits each reached component once instead
// of once per source. The lanes ride the side whose distinct nodes fill fewer
// passes, sources on a tie.
package graph

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"querylearn/internal/plan"
)

// laneWidth is the number of lanes one pass carries: the bits of a mask.
const laneWidth = 64

// condensation is the strongly connected components of one label's edges,
// discovered lazily over the CSR a call walks. Components are numbered in
// Tarjan completion order and a completed component is final, so every
// condensed edge points to a lower id: visiting pending components from the
// highest id down visits each after all of its reached predecessors.
type condensation struct {
	comp    []int32 // node -> component id + 1; 0 while unassigned
	members []int32 // nodes grouped by component, in completion order
	start   []int32 // component c's members are members[start[c]:start[c+1]]
}

// laneScratch is one worker's reusable state. Node-indexed arrays are zero
// outside the call using them, and every reset walks only what was touched,
// so a scratch can serve any graph of at most cap(cur) nodes.
type laneScratch struct {
	cur, next   []uint64 // lane masks of the current and the next state
	curT, nextT []int32  // nodes whose mask in cur / next is nonzero
	slot        []int32  // scheduling: node -> lane index + 1
	// Star closure state, zero outside star: lane masks gathered per
	// component id, and the bitset of components awaiting their visit.
	mask, pending []uint64
	// Tarjan state, zero outside a condense call.
	num, low []int32
	stack    []int32
	frames   []dfsFrame
	// conds[l] is label l's condensation; live lists the labels in use.
	conds []*condensation
	live  []int
}

type dfsFrame struct {
	node int32
	edge int32 // next CSR edge of node to explore
}

// lanePool recycles scratch across calls; a session build runs a dozen
// EvalPairsStream calls on one graph back to back.
var lanePool sync.Pool

func getLanes(n int) *laneScratch {
	s, _ := lanePool.Get().(*laneScratch)
	if s == nil || cap(s.cur) < n {
		s = &laneScratch{
			cur: make([]uint64, n), next: make([]uint64, n), slot: make([]int32, n),
			mask: make([]uint64, n), pending: make([]uint64, (n+laneWidth-1)/laneWidth),
			num: make([]int32, n), low: make([]int32, n),
		}
	}
	s.cur, s.next, s.slot, s.mask = s.cur[:n], s.next[:n], s.slot[:n], s.mask[:n]
	s.pending = s.pending[:(n+laneWidth-1)/laneWidth]
	s.num, s.low = s.num[:n], s.low[:n]
	return s
}

// putLanes clears the condensations a call built and recycles the scratch.
func putLanes(s *laneScratch) {
	for _, l := range s.live {
		cd := s.conds[l]
		for _, v := range cd.members {
			cd.comp[v] = 0
		}
		cd.members, cd.start = cd.members[:0], cd.start[:1]
	}
	s.live = s.live[:0]
	lanePool.Put(s)
}

// cond returns label l's condensation, sized for the call's graph.
func (s *laneScratch) cond(l int) *condensation {
	for len(s.conds) <= l {
		s.conds = append(s.conds, nil)
	}
	cd := s.conds[l]
	if cd == nil {
		cd = &condensation{}
		s.conds[l] = cd
	}
	for _, u := range s.live {
		if u == l {
			return cd
		}
	}
	s.live = append(s.live, l)
	// A graph of n nodes has at most n components, so these never regrow.
	if n := len(s.cur); cap(cd.comp) < n {
		cd.comp = make([]int32, n)
		cd.members = make([]int32, 0, n)
		cd.start = make([]int32, 1, n+1)
	} else {
		cd.comp = cd.comp[:n]
	}
	return cd
}

// condense assigns a component to every node reachable from root over c that
// has none yet: an iterative Tarjan that treats completed components as done.
func (s *laneScratch) condense(c csr, cd *condensation, root int32) {
	first := len(cd.members)
	counter := int32(0)
	visit := func(v int32) {
		counter++
		s.num[v], s.low[v] = counter, counter
		s.stack = append(s.stack, v)
		s.frames = append(s.frames, dfsFrame{node: v, edge: c.start[v]})
	}
	visit(root)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		v := f.node
		if f.edge < c.start[v+1] {
			t := c.to[f.edge]
			f.edge++
			switch {
			case cd.comp[t] != 0: // in a completed component
			case s.num[t] == 0:
				visit(t)
			case s.num[t] < s.low[v]: // on the stack
				s.low[v] = s.num[t]
			}
			continue
		}
		s.frames = s.frames[:len(s.frames)-1]
		if len(s.frames) > 0 {
			if p := s.frames[len(s.frames)-1].node; s.low[v] < s.low[p] {
				s.low[p] = s.low[v]
			}
		}
		if s.low[v] != s.num[v] {
			continue
		}
		id := int32(len(cd.start)) // the new component's id + 1
		for {
			x := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			cd.comp[x] = id
			cd.members = append(cd.members, x)
			if x == v {
				break
			}
		}
		cd.start = append(cd.start, int32(len(cd.members)))
	}
	for _, v := range cd.members[first:] {
		s.num[v], s.low[v] = 0, 0
	}
}

// step moves every mask one c-edge forward into next.
func (s *laneScratch) step(c csr) {
	for _, v := range s.curT {
		m := s.cur[v]
		for _, t := range c.row(int(v)) {
			if s.next[t] == 0 {
				s.nextT = append(s.nextT, t)
			}
			s.next[t] |= m
		}
	}
}

// star closes the masks over c-paths of any length, zero included, into next:
// the masks gather in their components, and each reached component, visited
// once from the highest id down, hands its mask to its condensed successors
// and writes it to its members.
func (s *laneScratch) star(c csr, cd *condensation) {
	hi := 0
	for _, v := range s.curT {
		if cd.comp[v] == 0 {
			s.condense(c, cd, v)
		}
		id := int(cd.comp[v] - 1)
		s.mask[id] |= s.cur[v]
		s.pending[id/laneWidth] |= 1 << (id % laneWidth)
		hi = max(hi, id)
	}
	for w := hi / laneWidth; w >= 0; w-- {
		for s.pending[w] != 0 {
			b := laneWidth - 1 - bits.LeadingZeros64(s.pending[w])
			s.pending[w] &^= 1 << b
			id := w*laneWidth + b
			m := s.mask[id]
			s.mask[id] = 0
			for _, x := range cd.members[cd.start[id]:cd.start[id+1]] {
				s.next[x] = m
				s.nextT = append(s.nextT, x)
				for _, t := range c.row(int(x)) {
					if u := int(cd.comp[t] - 1); u != id {
						s.mask[u] |= m
						s.pending[u/laneWidth] |= 1 << (u % laneWidth)
					}
				}
			}
		}
	}
}

// advance makes next the current state and clears the old one.
func (s *laneScratch) advance() {
	s.clear()
	s.cur, s.next = s.next, s.cur
	s.curT, s.nextT = s.nextT, s.curT
}

// clear zeroes the current state's masks.
func (s *laneScratch) clear() {
	for _, v := range s.curT {
		s.cur[v] = 0
	}
	s.curT = s.curT[:0]
}

// laneAtom is one automaton step of a pass: a label id (-1 when the graph
// lacks the label) and whether it is starred.
type laneAtom struct {
	lid  int
	star bool
}

// pass carries lane i from starts[i] through the atoms over adj. On return
// cur holds, per node, the lanes that reach it with every atom consumed; the
// caller reads its verdicts and then clears.
func (s *laneScratch) pass(atoms []laneAtom, adj []csr, starts []int32) {
	for i, v := range starts {
		if s.cur[v] == 0 {
			s.curT = append(s.curT, v)
		}
		s.cur[v] |= 1 << i
	}
	for _, a := range atoms {
		switch {
		case len(s.curT) == 0:
			return
		case a.lid < 0 && a.star: // zero repetitions only
			continue
		case a.lid < 0:
			s.clear()
			return
		case a.star:
			s.star(adj[a.lid], s.cond(a.lid))
		default:
			s.step(adj[a.lid])
		}
		s.advance()
	}
}

// schedule is a call's lane assignment: the lane side's distinct nodes in
// first-occurrence order, node j riding pass j/64 in lane j%64, and the pair
// indexes grouped by pass.
type schedule struct {
	backward bool
	nodes    []int32
	lane     []int32 // pairs[i]'s lane-side node is nodes[lane[i]]
	order    []int32 // pass p answers pairs order[start[p]:start[p+1]]
	start    []int32
}

func laneSide(p Pair, backward bool) int {
	if backward {
		return p.Dst
	}
	return p.Src
}

// passes counts the passes that lanes on the given side would take.
func (s *laneScratch) passes(pairs []Pair, backward bool) int {
	distinct := 0
	for _, p := range pairs {
		if v := laneSide(p, backward); s.slot[v] == 0 {
			s.slot[v] = 1
			distinct++
		}
	}
	for _, p := range pairs {
		s.slot[laneSide(p, backward)] = 0
	}
	return (distinct + laneWidth - 1) / laneWidth
}

func (s *laneScratch) schedule(pairs []Pair, backward bool) schedule {
	sch := schedule{backward: backward, lane: make([]int32, len(pairs))}
	for i, p := range pairs {
		v := laneSide(p, backward)
		if s.slot[v] == 0 {
			sch.nodes = append(sch.nodes, int32(v))
			s.slot[v] = int32(len(sch.nodes))
		}
		sch.lane[i] = s.slot[v] - 1
	}
	for _, v := range sch.nodes {
		s.slot[v] = 0
	}
	np := (len(sch.nodes) + laneWidth - 1) / laneWidth
	sch.start = make([]int32, np+1)
	for _, l := range sch.lane {
		sch.start[l/laneWidth+1]++
	}
	for p := 0; p < np; p++ {
		sch.start[p+1] += sch.start[p]
	}
	sch.order = make([]int32, len(pairs))
	fill := append([]int32(nil), sch.start[:np]...)
	for i, l := range sch.lane {
		sch.order[fill[l/laneWidth]] = int32(i)
		fill[l/laneWidth]++
	}
	return sch
}

func (sch *schedule) passes() int { return len(sch.start) - 1 }

// emit streams pass p's verdicts from the final masks in w.cur, stopping at
// the first false sink return.
func (sch *schedule) emit(w *laneScratch, pairs []Pair, p int, sink plan.Sink[PairVerdict]) bool {
	for _, i := range sch.order[sch.start[p]:sch.start[p+1]] {
		probe := pairs[i].Dst
		if sch.backward {
			probe = pairs[i].Src
		}
		bit := uint64(1) << (sch.lane[i] % laneWidth)
		if !sink(PairVerdict{Index: int(i), Selected: w.cur[probe]&bit != 0}) {
			return false
		}
	}
	return true
}

// EvalPairsStream is EvalPairs with planner attribution and streaming
// delivery: verdicts are emitted to the sink pass by pass (order
// unspecified), and a false return from the sink stops the stream — passes
// in flight complete but emit nothing further. The lanes ride the side with
// fewer passes, forward on a tie and always forward under QUERYLEARN_NOPLAN;
// rec (nil-safe) receives the time spent counting and the passes per
// direction for request-trace attribution.
func (g *Graph) EvalPairsStream(q PathQuery, pairs []Pair, rec *plan.Recorder, sink plan.Sink[PairVerdict]) {
	if len(pairs) == 0 || len(g.nodes) == 0 {
		return
	}
	s := getLanes(len(g.nodes))
	defer putLanes(s)
	done := rec.StartPlan(layerEvalPairs)
	backward := !plan.Disabled() && s.passes(pairs, true) < s.passes(pairs, false)
	done()
	choice := "forward"
	if backward {
		choice = "backward"
	}
	rec.Decide(layerEvalPairs, choice, g.evalLanes(s, q, pairs, backward, sink))
}

// evalLanes evaluates the pairs with the lanes on the given side, streaming
// the verdicts, and returns the number of passes. s is the caller's scratch;
// further workers draw their own.
func (g *Graph) evalLanes(s *laneScratch, q PathQuery, pairs []Pair, backward bool, sink plan.Sink[PairVerdict]) int {
	ix := g.index()
	sch := s.schedule(pairs, backward)
	k := len(q.Atoms)
	atoms := make([]laneAtom, k)
	for i, a := range q.Atoms {
		lid, ok := ix.labelIDs[a.Label]
		if !ok {
			lid = -1
		}
		atoms[i] = laneAtom{lid: lid, star: a.Star}
	}
	adj := ix.out
	if backward {
		adj = ix.in
		for i, j := 0, k-1; i < j; i, j = i+1, j-1 {
			atoms[i], atoms[j] = atoms[j], atoms[i]
		}
	}
	// Passes fan out over up to GOMAXPROCS workers, the caller's goroutine
	// among them; emission is serialized, and a false sink return stops
	// every worker at its next pass.
	passes := sch.passes()
	var stop atomic.Bool
	var mu sync.Mutex
	var cursor atomic.Int64
	work := func(w *laneScratch) {
		for !stop.Load() {
			p := int(cursor.Add(1)) - 1
			if p >= passes {
				return
			}
			w.pass(atoms, adj, sch.nodes[p*laneWidth:min((p+1)*laneWidth, len(sch.nodes))])
			mu.Lock()
			if !stop.Load() && !sch.emit(w, pairs, p, sink) {
				stop.Store(true)
			}
			mu.Unlock()
			w.clear()
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), passes); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := getLanes(len(g.nodes))
			defer putLanes(w)
			work(w)
		}()
	}
	work(s)
	wg.Wait()
	return passes
}
