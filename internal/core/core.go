// Package core is the unified entry point of the querylearn library: one
// learning function per data model (the thesis's three targets —
// semi-structured, relational, graph — plus schema inference), each
// wrapping the model-specific machinery with a uniform error and options
// surface. The cmd/querylearn CLI and the batch-learning examples build on
// this package; interactive dialogues run on internal/session.
package core

import (
	"fmt"

	"querylearn/internal/graph"
	"querylearn/internal/graphlearn"
	"querylearn/internal/relational"
	"querylearn/internal/rellearn"
	"querylearn/internal/schema"
	"querylearn/internal/schemalearn"
	"querylearn/internal/twig"
	"querylearn/internal/twiglearn"
	"querylearn/internal/xmltree"
)

// XMLOptions configure twig-query learning.
type XMLOptions struct {
	// Schema, when non-nil, activates schema-aware filter pruning (the
	// paper's optimized learner).
	Schema *schema.Schema
	// PathOnly restricts the hypothesis class to path queries.
	PathOnly bool
	// SearchBudget bounds the consistency search with negative examples
	// (0 = default).
	SearchBudget int
}

// LearnXMLQuery learns a twig query consistent with the annotated document
// nodes: it selects every positive node and no negative one. With positive
// examples only, the result is the most specific generalization.
func LearnXMLQuery(examples []twiglearn.Example, opts XMLOptions) (twig.Query, error) {
	lopts := twiglearn.DefaultOptions()
	lopts.Schema = opts.Schema
	if opts.PathOnly {
		lopts.UseFilters = false
	}
	return twiglearn.FindConsistent(examples, lopts, opts.SearchBudget)
}

// LearnJoinQuery learns an equi-join predicate between two relations from
// labeled tuple pairs, in polynomial time. It returns the most specific
// consistent predicate.
func LearnJoinQuery(left, right *relational.Relation, examples []rellearn.JoinExample) ([]relational.AttrPair, error) {
	u := rellearn.NewUniverse(left, right)
	p, ok := rellearn.JoinConsistent(u, examples)
	if !ok {
		return nil, fmt.Errorf("core: no join predicate is consistent with the examples")
	}
	return u.Decode(p), nil
}

// LearnSemijoinQuery learns a semijoin predicate from labeled left tuples.
// The underlying decision problem is NP-complete; budget bounds the exact
// search (0 = default).
func LearnSemijoinQuery(left, right *relational.Relation, examples []rellearn.SemijoinExample, budget int) ([]relational.AttrPair, error) {
	u := rellearn.NewUniverse(left, right)
	p, ok, _, err := rellearn.SemijoinConsistent(u, examples, budget)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: no semijoin predicate is consistent with the examples")
	}
	return u.Decode(p), nil
}

// LearnPathQuery learns a path query on an edge-labeled graph from labeled
// node pairs.
func LearnPathQuery(g *graph.Graph, examples []graphlearn.Example) (graph.PathQuery, error) {
	return graphlearn.Learn(g, examples)
}

// LearnSchema infers a disjunctive multiplicity schema from positive
// example documents.
func LearnSchema(docs []*xmltree.Node) (*schema.Schema, error) {
	return schemalearn.Learn(docs)
}
