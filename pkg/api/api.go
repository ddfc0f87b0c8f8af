// Package api defines the v1 wire protocol of the querylearn interactive
// learning service: every request and response body, the question/answer
// item encodings, session snapshots, and the structured error envelope with
// its stable machine-readable codes. Both sides of the wire share these
// types — internal/server marshals them, pkg/client unmarshals them, and
// internal/session aliases them as its own dialogue vocabulary — so the
// contract is defined exactly once.
//
// The package deliberately imports nothing beyond the standard library and
// nothing under internal/: it is the public, importable face of the service
// (`make api-check` builds an external module against it to keep that true).
//
// # Versioning
//
// All routes live under the /v1 prefix:
//
//	POST   /v1/sessions                   create a session from a task body
//	POST   /v1/sessions/resume            rehydrate a snapshotted session
//	GET    /v1/sessions                   paginated session list
//	GET    /v1/sessions/{id}              lifecycle status
//	GET    /v1/sessions/{id}/question     next informative item (or done)
//	GET    /v1/sessions/{id}/questions    up to n=k distinct informative items
//	POST   /v1/sessions/{id}/answers      batched labels, optional majority vote
//	GET    /v1/sessions/{id}/query        the learned hypothesis
//	GET    /v1/sessions/{id}/snapshot     persistable session state
//	DELETE /v1/sessions/{id}              evict
//
// Unversioned session paths answer 404. Request bodies are decoded
// strictly: unknown fields are rejected.
//
// # Errors
//
// Failures are JSON envelopes with a stable code and a human message:
//
//	{"error": {"code": "session_not_found", "message": "..."}}
//
// The Code* constants enumerate every code the service emits; clients
// should switch on codes, never on message text.
//
// # Idempotency
//
// POST /v1/sessions and POST /v1/sessions/{id}/answers accept an
// Idempotency-Key header. Retrying a request with the same key and body
// replays the stored first response (marked Idempotency-Replayed: true)
// instead of re-executing, so a client that lost a response to a timeout
// can retry without double-creating a session or double-charging a batch
// of crowd labels. Reusing a key with a different body, or while the first
// attempt is still in flight, fails with code "idempotency_conflict".
// Stored responses are held in server memory for the lifetime of the
// process (a bounded FIFO window of recent keys): a retry that crosses a
// daemon restart, or arrives after thousands of newer keyed writes, may
// re-execute — bound retry loops to seconds, not hours.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// V1Prefix is the path prefix of the current stable API version.
const V1Prefix = "/v1"

// Header names of the protocol extensions.
const (
	// IdempotencyKeyHeader makes a POST create/answers request safely
	// retryable: the first 2xx response under a key is stored and replayed.
	IdempotencyKeyHeader = "Idempotency-Key"
	// IdempotencyReplayedHeader marks a response that was replayed from the
	// idempotency store rather than executed.
	IdempotencyReplayedHeader = "Idempotency-Replayed"
	// RetryAfterHeader accompanies 429 and 503 responses: the seconds a
	// well-behaved client should wait before retrying. The SDK honors it.
	RetryAfterHeader = "Retry-After"
	// DegradedHeader is set to "true" on every response while the service is
	// in degraded mode (journal unavailable): reads keep working, mutations
	// fail with 503, and /healthz carries the reason.
	DegradedHeader = "X-Querylearn-Degraded"
	// RequestIDHeader correlates one request across client, server, and
	// logs: the server echoes a client-supplied id or generates one, every
	// response carries it, error bodies repeat it as request_id, and
	// slow-request logs key on it. The SDK stamps a fresh id per logical
	// call, reused across its retries, so a stalled dialogue can be traced
	// end-to-end.
	RequestIDHeader = "X-Request-Id"
	// NodeHeader names the cluster node that answered. On a 307 redirect it
	// instead names the session's owner node the client should follow to;
	// the SDK uses it to maintain its session→node routing cache.
	NodeHeader = "X-Querylearn-Node"
)

// MaxQuestionBatch caps the n parameter of GET /v1/sessions/{id}/questions.
const MaxQuestionBatch = 64

// MaxListLimit caps the limit parameter of GET /v1/sessions.
const MaxListLimit = 1000

// Stable error codes. Every structured error the service emits carries
// exactly one of these.
const (
	// CodeBadBody: the request body could not be read.
	CodeBadBody = "bad_body"
	// CodeBadJSON: the request body is not valid JSON for the endpoint's
	// request type (on /v1 this includes unknown fields).
	CodeBadJSON = "bad_json"
	// CodeBodyTooLarge: the request body exceeds the service's size cap
	// (HTTP 413).
	CodeBodyTooLarge = "body_too_large"
	// CodeUnsupportedMediaType: a POST body without a JSON Content-Type
	// (HTTP 415).
	CodeUnsupportedMediaType = "unsupported_media_type"
	// CodeBadParam: a malformed query parameter (n, limit, page_token).
	CodeBadParam = "bad_param"
	// CodeBadRequest: a request the session layer rejected for any other
	// reason (unknown model, malformed task, malformed item, ...).
	CodeBadRequest = "bad_request"
	// CodeSessionNotFound: unknown or already-evicted session id.
	CodeSessionNotFound = "session_not_found"
	// CodeTooManySessions: the daemon's live-session cap is reached.
	CodeTooManySessions = "too_many_sessions"
	// CodeBudgetExhausted: the batch would exceed the session's crowd
	// budget (HTTP 402).
	CodeBudgetExhausted = "budget_exhausted"
	// CodeSessionFailed: the session's answers became inconsistent; no
	// hypothesis in the class fits them.
	CodeSessionFailed = "session_failed"
	// CodeSessionExists: a resume under an id that is still live.
	CodeSessionExists = "session_exists"
	// CodeJournalUnavailable: a server-side durability fault aborted the
	// mutation; the request did not take effect and may be retried (503).
	CodeJournalUnavailable = "journal_unavailable"
	// CodeIdempotencyConflict: an Idempotency-Key was reused with a
	// different request body, or while its first attempt is in flight.
	CodeIdempotencyConflict = "idempotency_conflict"
	// CodeOverloaded: the daemon shed the request — its in-flight admission
	// budget is spent (HTTP 429) or it is draining for shutdown (HTTP 503).
	// The request did not take effect; retry after the Retry-After delay.
	CodeOverloaded = "overloaded"
)

// Codes lists every stable error code, in documentation order. Contract
// tests iterate it to prove each code is reachable over the wire.
var Codes = []string{
	CodeBadBody, CodeBadJSON, CodeBodyTooLarge, CodeUnsupportedMediaType,
	CodeBadParam, CodeBadRequest, CodeSessionNotFound, CodeTooManySessions,
	CodeBudgetExhausted, CodeSessionFailed, CodeSessionExists,
	CodeJournalUnavailable, CodeIdempotencyConflict, CodeOverloaded,
}

// Error is the structured failure body. It implements error so SDK callers
// can errors.As it back out of a call and switch on Code.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes the X-Request-Id the failing request carried, so an
	// error report can be matched to the server's logs and traces.
	RequestID string `json:"request_id,omitempty"`
	// Status is the HTTP status the error arrived with; filled by the
	// client, never serialized.
	Status int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// ErrorResponse is the envelope every non-2xx response carries.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// IsCode reports whether err is (or wraps) an API *Error with the given
// stable code.
func IsCode(err error, code string) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}

// Question is one item a learner wants labeled. Item is the model-specific
// wire encoding of the item; clients echo it back verbatim (or re-encode
// the same fields) when answering.
type Question struct {
	Model  string          `json:"model"`
	Item   json.RawMessage `json:"item"`
	Prompt string          `json:"prompt"`
	// Remaining counts the informative items still open at proposal time,
	// including the proposed ones — the client's progress bar.
	Remaining int `json:"remaining"`
}

// Answer is one label: the item a question encoded, and the verdict.
type Answer struct {
	Item     json.RawMessage `json:"item"`
	Positive bool            `json:"positive"`
}

// Hypothesis is a snapshot of the current best hypothesis of a session.
type Hypothesis struct {
	Model string `json:"model"`
	// Query renders the hypothesis in the model's native syntax (a twig
	// query, a join predicate, a path query, a multiplicity schema).
	Query string `json:"query"`
	// Converged is true when no informative item remains.
	Converged bool              `json:"converged"`
	Detail    map[string]string `json:"detail,omitempty"`
}

// Snapshot is the JSON-persistable state of a session mid-dialogue: the
// task source plus the answer log. Resuming rebuilds the learner and
// replays the log, which reproduces the version space exactly (learning is
// a pure function of task + answers).
type Snapshot struct {
	ID        string    `json:"id"`
	Model     string    `json:"model"`
	Task      string    `json:"task"`
	Answers   []Answer  `json:"answers,omitempty"`
	HITs      int       `json:"hits"`
	Cost      float64   `json:"cost"`
	MaxCost   float64   `json:"max_cost,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// Limits preserves the create request's session limits so a resumed
	// session rebuilds the identical question pool and version space.
	Limits *PathLimits `json:"limits,omitempty"`
	// AnswerKeys is the session's recent Idempotency-Key window (newest
	// last, bounded), persisted so a keyed answers retry that lands after a
	// failover — on a node that never saw the original request — is still
	// recognized as a replay instead of double-charging the batch.
	AnswerKeys []string `json:"answer_keys,omitempty"`
}

// Status is a session's lifecycle summary.
type Status struct {
	ID        string    `json:"id"`
	Model     string    `json:"model"`
	Answers   int       `json:"answers"`
	HITs      int       `json:"hits"`
	Cost      float64   `json:"cost"`
	MaxCost   float64   `json:"max_cost,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	Failed    string    `json:"failed,omitempty"`
}

// PathLimits tunes a path-model session at creation. Zero fields inherit
// the server's defaults (configurable via querylearnd flags); non-zero
// fields may only tighten — a request above the server's own limit is
// rejected. The limits travel with the session's Snapshot so resuming
// reproduces the exact version space.
type PathLimits struct {
	// MaxNodes caps the client-supplied graph's node count. The engine's
	// version space is pool-projected (memory proportional to the question
	// pool, not n²), so the server default is generous — one million nodes
	// unless the daemon lowers it.
	MaxNodes int `json:"max_nodes,omitempty"`
	// PoolLimit caps the candidate question pool's pair count (server
	// default 2000). Session memory and creation time scale with it.
	PoolLimit int `json:"pool_limit,omitempty"`
	// PoolMaxLen caps the shortest-path length of pool pairs (server
	// default 5 hops).
	PoolMaxLen int `json:"pool_max_len,omitempty"`
}

// CreateRequest is the POST /v1/sessions body.
type CreateRequest struct {
	// Model names the hypothesis class: "twig", "join", "path" or "schema".
	Model string `json:"model"`
	// Task is a task-file body in cmd/querylearn's line format; its
	// examples seed the session.
	Task string `json:"task"`
	// MaxCost caps the session's crowd spend in dollars (0 = no cap).
	MaxCost float64 `json:"max_cost,omitempty"`
	// Limits optionally tightens the path-model session limits. The field
	// is validated against the server's caps for every model (a value above
	// a cap is a 400 regardless of Model), but only path sessions consume
	// it.
	Limits *PathLimits `json:"limits,omitempty"`
}

// CreateResponse echoes the registered session (also the resume response).
type CreateResponse struct {
	ID    string `json:"id"`
	Model string `json:"model"`
}

// Reconcile modes for batched answers.
const (
	// ReconcileNone applies every label in order.
	ReconcileNone = ""
	// ReconcileMajority groups repeated labels of one item as crowd votes
	// and applies each item's majority verdict once. Ties are rejected.
	ReconcileMajority = "majority"
)

// AnswersRequest is the POST /v1/sessions/{id}/answers body.
type AnswersRequest struct {
	Answers []Answer `json:"answers"`
	// Reconcile selects batch semantics: ReconcileNone applies labels in
	// order, ReconcileMajority votes per item.
	Reconcile string `json:"reconcile,omitempty"`
}

// AnswerResult reports what a batch of labels did to the session.
type AnswerResult struct {
	// Applied counts the answers recorded into the version space (after
	// majority reconciliation, one per distinct item).
	Applied int `json:"applied"`
	// HITs and Cost account every submitted label as one paid task.
	HITs int     `json:"hits"`
	Cost float64 `json:"cost"`
	// Remaining counts informative items left; Done means converged.
	Remaining int  `json:"remaining"`
	Done      bool `json:"done"`
}

// QuestionResponse wraps GET /v1/sessions/{id}/question: either done, or
// the next question.
type QuestionResponse struct {
	Done     bool      `json:"done"`
	Question *Question `json:"question,omitempty"`
}

// QuestionsResponse wraps GET /v1/sessions/{id}/questions?n=k: up to k
// pairwise-distinct informative items for parallel crowd dispatch. Done is
// true exactly when Questions is empty.
type QuestionsResponse struct {
	Done      bool       `json:"done"`
	Questions []Question `json:"questions,omitempty"`
}

// SessionList is the GET /v1/sessions page: statuses in ascending id
// order. NextPageToken, when non-empty, fetches the following page via
// ?page_token=.
type SessionList struct {
	Sessions      []Status `json:"sessions"`
	NextPageToken string   `json:"next_page_token,omitempty"`
}
