// Package session hosts long-lived interactive learning dialogues — the
// paper's central scenario of a user (or paid crowd) labeling one example at
// a time while the learner shrinks its version space. It is the one
// implementation of that loop: the daemon serves it over HTTP and the
// experiments drive it in process. The loop is split at the question/answer
// boundary so a session can survive the human-scale latency between the
// two: a unified Learner interface over all four model learners (twig, join,
// path, schema), a concurrent sharded Manager of live sessions with TTL
// eviction and crowd-budget accounting, and JSON snapshot/resume so a
// dialogue can be persisted and rehydrated mid-flight.
// Every state mutation flows through the Manager's single commit path as an
// Event, which an optional Journal (internal/store's write-ahead log)
// observes write-ahead; boot-time recovery registers journaled state through
// the same Resume machinery, and each recovered session rebuilds its learner
// from its answer log on first touch. internal/server exposes the whole
// thing over HTTP.
package session

import (
	"bytes"
	"encoding/json"
	"fmt"

	"querylearn/internal/obs"
	"querylearn/internal/plan"
	"querylearn/pkg/api"
)

// The dialogue vocabulary is the wire protocol: pkg/api owns the type
// definitions (shared with pkg/client and external consumers) and this
// package aliases them, so the journal format, the HTTP bodies, and the
// in-memory dialogue state are one set of types.
type (
	// Question is one item a learner wants labeled.
	Question = api.Question
	// Hypothesis is a snapshot of the current best hypothesis of a session.
	Hypothesis = api.Hypothesis
)

// Learner is the unified interactive contract the Manager hosts: propose
// informative questions, record an answer, snapshot the current hypothesis.
// Implementations are NOT safe for concurrent use; the Manager serializes
// access per session.
type Learner interface {
	// Model names the hypothesis class: "twig", "join", "path" or "schema".
	Model() string
	// Propose returns up to k pairwise-distinct informative items for
	// parallel (crowd) dispatch, in the learner's deterministic proposal
	// order. k < 1 is treated as 1. An empty result means the session has
	// converged: every item is either labeled or uninformative. Each
	// returned Question carries the same Remaining count — the open
	// informative items at proposal time.
	Propose(k int) ([]Question, error)
	// Validate checks that an item decodes and addresses something that
	// exists (a corpus node, tuple indexes in range, known graph nodes)
	// WITHOUT touching the version space. The Manager validates a whole
	// batch before applying any of it, so malformed client input is
	// rejected cleanly instead of poisoning the session.
	Validate(item json.RawMessage) error
	// Record applies a user answer to the item encoded by a previous
	// question (any informative item is acceptable, not only the last
	// proposed one — batched answers arrive out of order). After a
	// passing Validate, an error here means the answers are genuinely
	// inconsistent: no hypothesis in the class fits them.
	Record(item json.RawMessage, positive bool) error
	// Hypothesis returns the current best hypothesis.
	Hypothesis() (Hypothesis, error)
}

// PlanReporter is the optional Learner face of planner attribution: a
// learner whose evaluation core records its planning work (internal/plan)
// exposes the recorder so the manager can fold it into request traces.
type PlanReporter interface {
	PlanRecorder() *plan.Recorder
}

// drainPlan empties the learner's planner recorder — if it has one — into
// the trace as a "plan" phase. Draining happens even on a nil trace so work
// from an untraced request is never misattributed to the next traced one;
// the phase flows from the trace into querylearn_phase_seconds and the
// slow-request log like every other phase.
func drainPlan(l Learner, tr *obs.Trace) {
	pr, ok := l.(PlanReporter)
	if !ok {
		return
	}
	d, _, _ := pr.PlanRecorder().Drain()
	tr.Add("plan", d)
}

// clampBatch normalizes a Propose k against the open-item count.
func clampBatch(k, open int) int {
	if k < 1 {
		k = 1
	}
	if k > open {
		k = open
	}
	return k
}

// Models lists the supported model names in stable order.
var Models = []string{"twig", "join", "path", "schema"}

// Default session limits. The path engine's version space is pool-projected
// (O(candidates · pool) bits, pool-restricted BFS at creation), so the node
// cap defaults to a million — a guard against absurd inputs, not the dense
// n²-bitset ceiling of 4096 nodes that earlier versions enforced.
const (
	DefaultPathMaxNodes   = 1 << 20
	DefaultPathPoolLimit  = 2000
	DefaultPathPoolMaxLen = 5
)

// Limits bounds the resources one session may claim. The zero value means
// "use the defaults"; a daemon overrides them globally via Config.Limits and
// a client tightens them per request via CreateOptions.Limits.
type Limits struct {
	// PathMaxNodes caps a path task's graph size (nodes).
	PathMaxNodes int
	// PathPoolLimit caps the candidate question pool (pairs).
	PathPoolLimit int
	// PathPoolMaxLen caps pool pairs' shortest-path length (hops).
	PathPoolMaxLen int
}

func (l Limits) withDefaults() Limits {
	if l.PathMaxNodes <= 0 {
		l.PathMaxNodes = DefaultPathMaxNodes
	}
	if l.PathPoolLimit <= 0 {
		l.PathPoolLimit = DefaultPathPoolLimit
	}
	if l.PathPoolMaxLen <= 0 {
		l.PathPoolMaxLen = DefaultPathPoolMaxLen
	}
	return l
}

// wire renders the effective limits as the api type, for stamping into
// snapshots and journal events: a persisted session records the concrete
// limits it was built under, so resuming on a daemon with different flag
// defaults still rebuilds the identical question pool and version space.
func (l Limits) wire() *api.PathLimits {
	l = l.withDefaults()
	return &api.PathLimits{
		MaxNodes:   l.PathMaxNodes,
		PoolLimit:  l.PathPoolLimit,
		PoolMaxLen: l.PathPoolMaxLen,
	}
}

// Merge applies a client's per-request limits on top of the server's. When
// enforceCaps is set (untrusted input: create requests, client resumes) a
// request may only tighten — values above the server's own limits are
// rejected; boot-time recovery replays with enforceCaps false so lowering a
// daemon flag cannot destroy journaled sessions.
func (l Limits) Merge(req *api.PathLimits, enforceCaps bool) (Limits, error) {
	l = l.withDefaults()
	if req == nil {
		return l, nil
	}
	if req.MaxNodes < 0 || req.PoolLimit < 0 || req.PoolMaxLen < 0 {
		return l, fmt.Errorf("session: limits must be non-negative (got max_nodes=%d pool_limit=%d pool_max_len=%d)",
			req.MaxNodes, req.PoolLimit, req.PoolMaxLen)
	}
	if enforceCaps {
		if req.MaxNodes > l.PathMaxNodes {
			return l, fmt.Errorf("session: requested max_nodes %d exceeds the server limit %d", req.MaxNodes, l.PathMaxNodes)
		}
		if req.PoolLimit > l.PathPoolLimit {
			return l, fmt.Errorf("session: requested pool_limit %d exceeds the server limit %d", req.PoolLimit, l.PathPoolLimit)
		}
		if req.PoolMaxLen > l.PathPoolMaxLen {
			return l, fmt.Errorf("session: requested pool_max_len %d exceeds the server limit %d", req.PoolMaxLen, l.PathPoolMaxLen)
		}
	}
	if req.MaxNodes > 0 {
		l.PathMaxNodes = req.MaxNodes
	}
	if req.PoolLimit > 0 {
		l.PathPoolLimit = req.PoolLimit
	}
	if req.PoolMaxLen > 0 {
		l.PathPoolMaxLen = req.PoolMaxLen
	}
	return l, nil
}

// NewLimited builds a Learner of the given model from a task-file body (the
// same line-oriented format cmd/querylearn reads, documented in
// internal/core/task.go) under explicit resource limits (zero fields mean
// the defaults). The task's own examples are replayed into the fresh
// session, so a task file doubles as a session seed.
func NewLimited(model, task string, lim Limits) (Learner, error) {
	lim = lim.withDefaults()
	switch model {
	case "twig":
		return newTwigLearner(task)
	case "join":
		return newJoinLearner(task)
	case "path":
		return newPathLearner(task, lim)
	case "schema":
		return newSchemaLearner(task)
	}
	return nil, fmt.Errorf("session: unknown model %q (want twig, join, path, or schema)", model)
}

// ItemKey canonicalizes an item encoding for equality grouping (majority
// vote reconciliation): JSON objects with the same fields in any key order
// map to the same key.
func ItemKey(raw json.RawMessage) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("session: bad item: %w", err)
	}
	b, err := json.Marshal(v) // map keys marshal sorted
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// decodeCache is a learner's handle on the manager's item interner, used to
// memoize decodeItem results. Learners embed it; the Manager injects the
// interner after construction, so learners built standalone (NewLimited)
// simply decode every time. The zero value is a valid always-miss cache.
type decodeCache struct{ in *itemInterner }

func (c *decodeCache) setDecodeCache(in *itemInterner) { c.in = in }

// decodeItemCached is decodeItem memoized through the interner: the typed
// struct an item decodes to is a pure function of (model, bytes), so a
// dialogue relabeling its small question vocabulary decodes each item once
// manager-wide instead of once per Validate and once per Record. Cached
// values MUST be plain value structs — task-dependent checks (index ranges,
// node existence) stay with the caller.
func decodeItemCached[T any](c *decodeCache, model string, raw json.RawMessage) (T, error) {
	if v, ok := c.in.getDecoded(model, raw); ok {
		return v.(T), nil
	}
	var it T
	if err := decodeItem(raw, &it); err != nil {
		return it, err
	}
	c.in.putDecoded(model, raw, it)
	return it, nil
}

// decodeItem unmarshals an item strictly, rejecting unknown fields so a
// mis-modeled answer (a path item sent to a join session) fails loudly
// instead of zero-valuing.
func decodeItem(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("session: bad item %s: %w", compact(raw), err)
	}
	return nil
}

// compact renders an item for error messages without newlines.
func compact(raw json.RawMessage) string {
	var v any
	if json.Unmarshal(raw, &v) != nil {
		return string(raw)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return string(raw)
	}
	return string(b)
}
