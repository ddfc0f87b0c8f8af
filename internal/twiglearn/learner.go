package twiglearn

import (
	"fmt"
	"sort"

	"querylearn/internal/schema"
	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// Options configure the twig learner.
type Options struct {
	// UseFilters enables mining of common filter branches; without it
	// the learner returns a pure path query (the path-query learner of
	// the paper).
	UseFilters bool
	// MaxFilterDepth bounds the depth of mined filter chains (default 3).
	MaxFilterDepth int
	// Schema, when set, activates the paper's optimized learner: a
	// mined filter is attached only when it is NOT implied by the
	// schema, attacking overspecialization ("we want to add a filter
	// present in all the positive examples to the learned query only if
	// it is not implied by the schema", §2).
	Schema *schema.Schema
	// Minimize removes redundant filter branches from the result
	// (default true via DefaultOptions).
	Minimize bool
	// MergeFilters additionally fuses common filter chains sharing a
	// first label into single tree-shaped branches. The merged branches
	// are more specific but overfit aggressively on large documents
	// (they encode which optional features co-occurred in the training
	// examples), so this is off by default; the ablation bench
	// quantifies the trade-off.
	MergeFilters bool
	// FilterWindow restricts filter mining to the last FilterWindow
	// nodes of the selecting path (the output node and its nearest
	// ancestors) — the anchored flavour of the learner. Filters far
	// from the output node mostly encode whole-document commonalities
	// (every large document has *some* item in every region), which is
	// the overspecialization the paper diagnoses; a window of 2 keeps
	// the discriminating structure while shedding the noise. 0 mines at
	// every path node (the unrestricted learner T3 measures).
	FilterWindow int
}

// DefaultOptions returns the learner configuration used by the experiments:
// filters on near the output node (window 2), depth 3, no schema,
// minimization on.
func DefaultOptions() Options {
	return Options{UseFilters: true, MaxFilterDepth: 3, Minimize: true, FilterWindow: 2}
}

// Learn computes the most specific twig query consistent with the positive
// examples: the generalized selecting path decorated with every filter
// branch common to all examples (modulo schema pruning). Negative examples
// in the input are ignored here; use FindConsistent for mixed example sets.
func Learn(examples []Example, opts Options) (twig.Query, error) {
	pos, _ := Split(examples)
	if len(pos) == 0 {
		return twig.Query{}, fmt.Errorf("twiglearn: need at least one positive example")
	}
	if opts.MaxFilterDepth == 0 {
		opts.MaxFilterDepth = 3
	}
	nodes := make([]*xmltree.Node, len(pos))
	for i, e := range pos {
		nodes[i] = e.Node
	}
	pathQ, err := GeneralizePaths(nodes)
	if err != nil {
		return twig.Query{}, err
	}
	if !opts.UseFilters {
		return pathQ, nil
	}
	steps, err := stepsFromQuery(pathQ)
	if err != nil {
		return twig.Query{}, err
	}
	// Anchor each example: document node per pattern step.
	anchors := make([][]*xmltree.Node, len(pos)) // anchors[e][step]
	for ei, e := range pos {
		path := e.Node.PathFromRoot()
		labels := make([]string, len(path))
		for i, n := range path {
			labels[i] = n.Label
		}
		posIdx := embedPositions(steps, labels)
		if posIdx == nil {
			return twig.Query{}, fmt.Errorf("twiglearn: generalized path does not embed into example %d", ei)
		}
		row := make([]*xmltree.Node, len(steps))
		for s, p := range posIdx {
			row[s] = path[p]
		}
		anchors[ei] = row
	}
	var dg *schema.DepGraph
	if opts.Schema != nil {
		dg = schema.NewDepGraph(opts.Schema)
	}
	// Mine common filters per pattern step.
	q := pathQ.Clone()
	qSpine := spine(q)
	for s := range steps {
		if opts.FilterWindow > 0 && s < len(steps)-opts.FilterWindow {
			continue
		}
		cands := filterCandidates(anchors[0][s], opts.MaxFilterDepth)
		var common []*twig.Node
		for _, f := range cands {
			all := true
			for ei := 1; ei < len(anchors); ei++ {
				if !branchMatchesAt(f, anchors[ei][s]) {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			if dg != nil && steps[s].label != twig.Wildcard {
				f = simplifyBranch(f, steps[s].label, dg)
				if f == nil {
					continue // schema-implied: the optimized learner drops it
				}
			}
			common = append(common, f)
		}
		common = dropSubsumedFilters(common)
		if opts.MergeFilters {
			common = mergeFilters(common, anchors, s)
		}
		qSpine[s].Children = append(qSpine[s].Children, common...)
	}
	// Re-establish the output spine ordering invariant is unnecessary:
	// twig rendering locates the output node dynamically.
	if opts.Minimize {
		q = twig.Minimize(q)
	}
	return q, nil
}

// spine returns the main path nodes of a pure path query, in order.
func spine(q twig.Query) []*twig.Node {
	var out []*twig.Node
	n := q.Root
	for n != nil {
		out = append(out, n)
		next := (*twig.Node)(nil)
		for _, c := range n.Children {
			next = c
		}
		n = next
	}
	return out
}

// filterCandidates enumerates candidate filter branches at a document node:
// every downward label chain of length <= depth starting at each child, as
// child-axis patterns, plus descendant-axis variants of single labels
// occurring deeper.
func filterCandidates(n *xmltree.Node, depth int) []*twig.Node {
	seen := map[string]bool{}
	var keyBuf []byte
	var out []*twig.Node
	add := func(f *twig.Node) {
		keyBuf = appendFilterKey(keyBuf[:0], f)
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out = append(out, f)
		}
	}
	var chains func(d *xmltree.Node, maxD int) [][]string
	chains = func(d *xmltree.Node, maxD int) [][]string {
		res := [][]string{{d.Label}}
		if maxD <= 1 {
			return res
		}
		for _, c := range d.Children {
			for _, tail := range chains(c, maxD-1) {
				res = append(res, append([]string{d.Label}, tail...))
			}
		}
		return res
	}
	for _, c := range n.Children {
		for _, chain := range chains(c, depth) {
			add(chainToBranch(chain, twig.Child))
		}
	}
	// Descendant-axis variants: labels occurring strictly below children.
	deep := map[string]bool{}
	for _, c := range n.Children {
		c.Walk(func(d *xmltree.Node) bool {
			if d != c {
				deep[d.Label] = true
			}
			return true
		})
	}
	labels := make([]string, 0, len(deep))
	for l := range deep {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		add(&twig.Node{Label: l, Axis: twig.Descendant})
	}
	return out
}

// chainToBranch converts a label chain into a nested child-axis branch with
// the given axis on its first node.
func chainToBranch(chain []string, firstAxis twig.Axis) *twig.Node {
	root := &twig.Node{Label: chain[0], Axis: firstAxis}
	cur := root
	for _, l := range chain[1:] {
		next := &twig.Node{Label: l, Axis: twig.Child}
		cur.Children = append(cur.Children, next)
		cur = next
	}
	return root
}

func filterKey(f *twig.Node) string { return string(appendFilterKey(nil, f)) }

// appendFilterKey serializes a filter branch canonically into b without the
// quadratic string concatenation of the original filterKey.
func appendFilterKey(b []byte, f *twig.Node) []byte {
	b = append(b, f.Axis.String()...)
	b = append(b, f.Label...)
	for _, c := range f.Children {
		b = append(b, '(')
		b = appendFilterKey(b, c)
		b = append(b, ')')
	}
	return b
}

// branchMatchesAt reports whether the filter branch is satisfied at the
// document node d (branch axis relative to d).
func branchMatchesAt(f *twig.Node, d *xmltree.Node) bool {
	var cands []*xmltree.Node
	if f.Axis == twig.Child {
		cands = d.Children
	} else {
		for _, c := range d.Children {
			cands = append(cands, c.Nodes()...)
		}
	}
	for _, c := range cands {
		if nodeSatisfies(f, c) {
			return true
		}
	}
	return false
}

// nodeSatisfies reports whether the pattern node f embeds with its root at
// document node d.
func nodeSatisfies(f *twig.Node, d *xmltree.Node) bool {
	if f.Label != twig.Wildcard && f.Label != d.Label {
		return false
	}
	for _, fc := range f.Children {
		if !branchMatchesAt(fc, d) {
			return false
		}
	}
	return true
}

// simplifyBranch removes the schema-implied parts of a filter branch at a
// node labeled parent: a branch wholly implied by the schema is dropped
// (nil), and sub-branches implied at their own parent label are pruned
// recursively, so [item/location] collapses to [item] when the schema
// requires a location under every item. This is the paper's optimization:
// "we want to add a filter present in all the positive examples to the
// learned query only if it is not implied by the schema" (§2).
func simplifyBranch(f *twig.Node, parent string, dg *schema.DepGraph) *twig.Node {
	if dg.ImpliedWith(f, parent) {
		return nil
	}
	out := &twig.Node{Label: f.Label, Axis: f.Axis}
	for _, c := range f.Children {
		if f.Label == twig.Wildcard {
			out.Children = append(out.Children, cloneBranch(c))
			continue
		}
		if sc := simplifyBranch(c, f.Label, dg); sc != nil {
			out.Children = append(out.Children, sc)
		}
	}
	return out
}

// dropSubsumedFilters removes filters implied by another kept filter: f is
// dropped when some other filter f2's presence guarantees f's (a
// homomorphism from f into f2 rooted compatibly).
func dropSubsumedFilters(fs []*twig.Node) []*twig.Node {
	if len(fs) < 2 {
		return fs
	}
	// Canonical-key prepass: drop exact duplicates (keeping the first) so
	// the quadratic homomorphism loop below only sees distinct branches.
	uniq := fs[:0:0]
	seen := map[string]bool{}
	var keyBuf []byte
	for _, f := range fs {
		keyBuf = appendFilterKey(keyBuf[:0], f)
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			uniq = append(uniq, f)
		}
	}
	fs = uniq
	var out []*twig.Node
	for i, f := range fs {
		subsumed := false
		for j, f2 := range fs {
			if i == j {
				continue
			}
			if branchImplies(f2, f) && !(branchImplies(f, f2) && j > i) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, f)
		}
	}
	return out
}

// branchImplies reports whether satisfying branch a at a node guarantees
// satisfying branch b there: a homomorphism from b into a respecting axes
// (a child edge of b maps to a child edge of a; a descendant edge of b maps
// to any downward path in a).
func branchImplies(a, b *twig.Node) bool {
	if b.Axis == twig.Child {
		return a.Axis == twig.Child && branchHom(b, a)
	}
	// b descendant: maps to a or anywhere below a.
	if branchHom(b, a) {
		return true
	}
	return anyBelow(a, func(x *twig.Node) bool { return branchHom(b, x) })
}

func branchHom(b, a *twig.Node) bool {
	if b.Label != twig.Wildcard && b.Label != a.Label {
		return false
	}
	for _, bc := range b.Children {
		ok := false
		if bc.Axis == twig.Child {
			for _, ac := range a.Children {
				if ac.Axis == twig.Child && branchHom(bc, ac) {
					ok = true
					break
				}
			}
		} else {
			ok = anyBelow(a, func(x *twig.Node) bool { return branchHom(bc, x) })
		}
		if !ok {
			return false
		}
	}
	return true
}

func anyBelow(a *twig.Node, pred func(*twig.Node) bool) bool {
	for _, c := range a.Children {
		if pred(c) || anyBelow(c, pred) {
			return true
		}
	}
	return false
}

// mergeFilters greedily merges filters sharing their first label into
// single branches when the merged (stronger) pattern still holds in every
// example — recovering tree-shaped common filters from chain candidates.
func mergeFilters(fs []*twig.Node, anchors [][]*xmltree.Node, s int) []*twig.Node {
	merged := true
	for merged {
		merged = false
		for i := 0; i < len(fs) && !merged; i++ {
			for j := i + 1; j < len(fs) && !merged; j++ {
				if fs[i].Axis != twig.Child || fs[j].Axis != twig.Child {
					continue
				}
				if fs[i].Label != fs[j].Label {
					continue
				}
				m := &twig.Node{Label: fs[i].Label, Axis: twig.Child}
				m.Children = append(m.Children, fs[i].Children...)
				m.Children = append(m.Children, fs[j].Children...)
				ok := true
				for ei := range anchors {
					if !branchMatchesAt(m, anchors[ei][s]) {
						ok = false
						break
					}
				}
				if ok {
					fs[i] = m
					fs = append(fs[:j], fs[j+1:]...)
					merged = true
				}
			}
		}
	}
	return fs
}
