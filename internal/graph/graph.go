// Package graph implements the graph-database substrate of §3: a directed
// edge-labeled multigraph with an RDF-triple view, and path queries —
// regular expressions over edge labels restricted to the learnable class of
// Bonifati/Ciucanu-style path queries (concatenations of letters and
// starred letters) — evaluated by product construction.
//
// The paper rejects full SPARQL as a learning target ("too expressive and
// involves too computationally complex problems"; pattern evaluation is
// PSPACE-complete) and aims instead at "a query language for graphs which
// is expressive enough and also learnable": path queries fill that role.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Edge is one labeled directed edge — equivalently an RDF triple
// (subject=From, predicate=Label, object=To).
type Edge struct {
	From, To, Label string
}

// Graph is a directed edge-labeled multigraph. Nodes are interned strings.
type Graph struct {
	nodes   []string
	nodeIdx map[string]int
	// out[from] lists outgoing edges as (label, to) index pairs.
	out [][]halfEdge
	in  [][]halfEdge
	m   int
	// idx is the interned-label CSR view backing the fast evaluators
	// (see eval.go); built lazily under idxMu, dropped on mutation.
	// The mutex keeps concurrent queries on a quiescent graph safe;
	// mutating concurrently with anything else remains unsafe, as it
	// always was for the edge lists themselves.
	idxMu sync.Mutex
	idx   *labelIndex
}

type halfEdge struct {
	label string
	node  int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodeIdx: map[string]int{}}
}

// AddNode interns a node and returns its index.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.nodeIdx[name]; ok {
		return i
	}
	i := len(g.nodes)
	g.nodes = append(g.nodes, name)
	g.nodeIdx[name] = i
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.idx = nil
	return i
}

// AddEdge inserts a labeled edge, creating nodes as needed.
func (g *Graph) AddEdge(from, label, to string) {
	f, t := g.AddNode(from), g.AddNode(to)
	g.out[f] = append(g.out[f], halfEdge{label: label, node: t})
	g.in[t] = append(g.in[t], halfEdge{label: label, node: f})
	g.m++
	g.idx = nil
}

// AddTriple is AddEdge in RDF argument order (subject, predicate, object).
func (g *Graph) AddTriple(subject, predicate, object string) {
	g.AddEdge(subject, predicate, object)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.m }

// Node returns the name of node i.
func (g *Graph) Node(i int) string { return g.nodes[i] }

// NodeIndex returns the index of a node name, or -1.
func (g *Graph) NodeIndex(name string) int {
	if i, ok := g.nodeIdx[name]; ok {
		return i
	}
	return -1
}

// Nodes returns all node names, in insertion order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.nodes...) }

// Labels returns the sorted set of edge labels.
func (g *Graph) Labels() []string {
	set := map[string]struct{}{}
	for _, es := range g.out {
		for _, e := range es {
			set[e.label] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Triples returns every edge as an RDF triple, in insertion-ish order.
func (g *Graph) Triples() []Edge {
	var out []Edge
	for f, es := range g.out {
		for _, e := range es {
			out = append(out, Edge{From: g.nodes[f], Label: e.label, To: g.nodes[e.node]})
		}
	}
	return out
}

// Out calls fn for each outgoing edge of node i.
func (g *Graph) Out(i int, fn func(label string, to int)) {
	for _, e := range g.out[i] {
		fn(e.label, e.node)
	}
}

// Atom is one step of a path query: an edge label with a multiplicity.
type Atom struct {
	Label string
	// Star makes the atom match any number of consecutive edges with the
	// label (including zero); otherwise exactly one edge.
	Star bool
}

func (a Atom) String() string {
	if a.Star {
		return a.Label + "*"
	}
	return a.Label
}

// PathQuery is a concatenation of atoms — the learnable path-query class.
// The empty query matches only the empty path (every node pairs with
// itself).
type PathQuery struct {
	Atoms []Atom
}

// ParsePathQuery parses dot-separated atoms: "highway.road*.ferry".
func ParsePathQuery(s string) (PathQuery, error) {
	if strings.TrimSpace(s) == "" {
		return PathQuery{}, nil
	}
	var q PathQuery
	for _, part := range strings.Split(s, ".") {
		part = strings.TrimSpace(part)
		if part == "" {
			return PathQuery{}, fmt.Errorf("graph: empty atom in %q", s)
		}
		star := strings.HasSuffix(part, "*")
		label := strings.TrimSuffix(part, "*")
		if label == "" {
			return PathQuery{}, fmt.Errorf("graph: star without label in %q", s)
		}
		q.Atoms = append(q.Atoms, Atom{Label: label, Star: star})
	}
	return q, nil
}

// MustParsePathQuery panics on error, for fixtures.
func MustParsePathQuery(s string) PathQuery {
	q, err := ParsePathQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

func (q PathQuery) String() string {
	if len(q.Atoms) == 0 {
		return "ε"
	}
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ".")
}

// Equal reports syntactic equality.
func (q PathQuery) Equal(r PathQuery) bool { return q.String() == r.String() }

// MatchWord reports whether a label word belongs to the query language.
func (q PathQuery) MatchWord(word []string) bool {
	// NFA over atom positions: state i = "first i atoms consumed".
	cur := q.closure(map[int]bool{0: true})
	for _, l := range word {
		next := map[int]bool{}
		for s := range cur {
			if s < len(q.Atoms) && q.Atoms[s].Label == l {
				if q.Atoms[s].Star {
					next[s] = true // stay
				} else {
					next[s+1] = true
				}
			}
		}
		cur = q.closure(next)
		if len(cur) == 0 {
			return false
		}
	}
	return cur[len(q.Atoms)]
}

// closure adds states reachable by skipping starred atoms.
func (q PathQuery) closure(states map[int]bool) map[int]bool {
	for s := 0; s <= len(q.Atoms); s++ {
		if states[s] && s < len(q.Atoms) && q.Atoms[s].Star {
			states[s+1] = true
		}
	}
	return states
}

// Pair is a source/target node pair (by index).
type Pair struct{ Src, Dst int }

// EvalFromNaive is the original map-backed product-BFS evaluator, retained
// as the differential-testing oracle for the CSR/bitset fast path in
// eval.go.
func (g *Graph) EvalFromNaive(q PathQuery, src int) []int {
	n := len(q.Atoms)
	type cfg struct{ node, state int }
	seen := map[cfg]bool{}
	var stack []cfg
	push := func(node, state int) {
		// Epsilon closure over starred atoms.
		for {
			c := cfg{node, state}
			if seen[c] {
				return
			}
			seen[c] = true
			stack = append(stack, c)
			if state < n && q.Atoms[state].Star {
				state++
				continue
			}
			return
		}
	}
	push(src, 0)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.state >= n {
			continue
		}
		a := q.Atoms[c.state]
		for _, e := range g.out[c.node] {
			if e.label != a.Label {
				continue
			}
			if a.Star {
				push(e.node, c.state)
			} else {
				push(e.node, c.state+1)
			}
		}
	}
	var out []int
	for c := range seen {
		if c.state == n {
			out = append(out, c.node)
		}
	}
	sort.Ints(out)
	return out
}

// EvalNaive runs the all-pairs evaluation through the naive per-source
// evaluator — the retained oracle the optimized Eval is measured against.
func (g *Graph) EvalNaive(q PathQuery) []Pair {
	var out []Pair
	for s := 0; s < len(g.nodes); s++ {
		for _, d := range g.EvalFromNaive(q, s) {
			out = append(out, Pair{Src: s, Dst: d})
		}
	}
	return out
}

// shortestWordNaive is the original copy-per-enqueue BFS, retained as the
// oracle for the parent-pointer implementation in eval.go.
func (g *Graph) shortestWordNaive(src, dst int) []string {
	if src == dst {
		return []string{}
	}
	type item struct {
		node int
		word []string
	}
	seen := map[int]bool{src: true}
	queue := []item{{node: src}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		// Deterministic expansion order: sort half-edges by label then
		// node index.
		es := append([]halfEdge(nil), g.out[it.node]...)
		sort.Slice(es, func(a, b int) bool {
			if es[a].label != es[b].label {
				return es[a].label < es[b].label
			}
			return es[a].node < es[b].node
		})
		for _, e := range es {
			if seen[e.node] {
				continue
			}
			w := append(append([]string(nil), it.word...), e.label)
			if e.node == dst {
				return w
			}
			seen[e.node] = true
			queue = append(queue, item{node: e.node, word: w})
		}
	}
	return nil
}

// GenerateGeo builds the paper's geographic use case: a seeded random road
// network whose nodes are cities and whose edges carry road types
// ("highway", "road", "ferry", "train"). Each city links to a handful of
// others; highways form a sparse backbone so that highway-only paths are a
// meaningful query class.
func GenerateGeo(seed int64, nCities int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < nCities; i++ {
		g.AddNode(fmt.Sprintf("city%d", i))
	}
	// Highway backbone over a random subset.
	backbone := nCities / 3
	if backbone < 2 {
		backbone = 2
	}
	perm := rng.Perm(nCities)[:backbone]
	for i := 0; i+1 < len(perm); i++ {
		a, b := fmt.Sprintf("city%d", perm[i]), fmt.Sprintf("city%d", perm[i+1])
		g.AddEdge(a, "highway", b)
		g.AddEdge(b, "highway", a)
	}
	// Local roads.
	labels := []string{"road", "road", "train", "ferry"}
	for i := 0; i < nCities; i++ {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			j := rng.Intn(nCities)
			if j == i {
				continue
			}
			l := labels[rng.Intn(len(labels))]
			g.AddEdge(fmt.Sprintf("city%d", i), l, fmt.Sprintf("city%d", j))
		}
	}
	return g
}
