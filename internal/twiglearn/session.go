package twiglearn

import (
	"fmt"

	"querylearn/internal/twig"
	"querylearn/internal/xmltree"
)

// Interactive twig learning — the "practical system able to learn twig
// queries from interaction with the user" the paper announces at the end of
// §2. The session keeps two bounds on the goal query: the most specific
// hypothesis consistent with the labeled examples (path + common filters)
// and the most general one (the bare generalized selecting path). A
// document node is informative when the two bounds disagree on it, or when
// the specific hypothesis selects it but no example confirms it yet; the
// loop asks only such nodes.

// NodeRef identifies a node within the session corpus.
type NodeRef struct {
	Doc  int // index into the corpus
	Node *xmltree.Node
}

// TwigSession is the interactive state: Informative lists the nodes worth
// asking, Record applies an answer. internal/session serves it as the twig
// model's learner.
type TwigSession struct {
	Corpus   []*xmltree.Node
	Opts     Options
	examples []Example
	specific twig.Query // most specific hypothesis
	general  twig.Query // most general hypothesis (path only)
	valid    bool
}

// NewTwigSession starts a session from one positive seed example.
func NewTwigSession(corpus []*xmltree.Node, seedDoc int, seedNode *xmltree.Node, opts Options) (*TwigSession, error) {
	if seedDoc < 0 || seedDoc >= len(corpus) {
		return nil, fmt.Errorf("twiglearn: seed document %d out of range", seedDoc)
	}
	s := &TwigSession{Corpus: corpus, Opts: opts}
	ex, err := NewExample(corpus[seedDoc], seedNode, true)
	if err != nil {
		return nil, err
	}
	s.examples = append(s.examples, ex)
	if err := s.relearn(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *TwigSession) relearn() error {
	spec, err := FindConsistent(s.examples, s.Opts, 0)
	if err != nil {
		return err
	}
	pathOpts := s.Opts
	pathOpts.UseFilters = false
	gen, err := Learn(s.examples, pathOpts)
	if err != nil {
		return err
	}
	s.specific, s.general, s.valid = spec, gen, true
	return nil
}

// Hypothesis returns the current most specific consistent query.
func (s *TwigSession) Hypothesis() twig.Query { return s.specific }

// GeneralBound returns the current most general hypothesis.
func (s *TwigSession) GeneralBound() twig.Query { return s.general }

// Examples returns a copy of the labeled examples so far.
func (s *TwigSession) Examples() []Example { return append([]Example(nil), s.examples...) }

// labeledSet returns the nodes already labeled.
func (s *TwigSession) labeled() map[*xmltree.Node]bool {
	m := map[*xmltree.Node]bool{}
	for _, e := range s.examples {
		m[e.Node] = true
	}
	return m
}

// Informative lists the nodes worth asking: nodes where the specific and
// general bounds disagree, plus unconfirmed selections of the specific
// hypothesis.
func (s *TwigSession) Informative() []NodeRef {
	if !s.valid {
		return nil
	}
	labeled := s.labeled()
	var out []NodeRef
	for di, doc := range s.Corpus {
		specSel := map[*xmltree.Node]bool{}
		for _, n := range s.specific.Eval(doc) {
			specSel[n] = true
		}
		for _, n := range s.general.Eval(doc) {
			if labeled[n] {
				continue
			}
			// Disagreement region or unconfirmed specific pick.
			if !specSel[n] || !s.confirmed(n) {
				out = append(out, NodeRef{Doc: di, Node: n})
			}
		}
	}
	return out
}

// confirmed reports whether a node is the node of some positive example.
func (s *TwigSession) confirmed(n *xmltree.Node) bool {
	for _, e := range s.examples {
		if e.Positive && e.Node == n {
			return true
		}
	}
	return false
}

// Record applies a user answer and relearns both bounds.
func (s *TwigSession) Record(item NodeRef, positive bool) error {
	ex, err := NewExample(s.Corpus[item.Doc], item.Node, positive)
	if err != nil {
		return err
	}
	s.examples = append(s.examples, ex)
	return s.relearn()
}
