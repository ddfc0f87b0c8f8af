// Package server exposes the interactive learning sessions of
// internal/session over the versioned JSON HTTP API defined in pkg/api —
// the wire form of the paper's question/answer loop, built for many
// concurrent users:
//
//	POST   /v1/sessions                   create a session from a task-file body
//	POST   /v1/sessions/resume            rehydrate a snapshotted session
//	GET    /v1/sessions                   paginated session list
//	GET    /v1/sessions/{id}              lifecycle status
//	GET    /v1/sessions/{id}/question     next informative item (or done)
//	GET    /v1/sessions/{id}/questions    up to ?n=k distinct informative items
//	POST   /v1/sessions/{id}/answers      batched labels, optional majority vote
//	GET    /v1/sessions/{id}/query        the learned hypothesis
//	GET    /v1/sessions/{id}/snapshot     persistable session state
//	DELETE /v1/sessions/{id}              evict
//	GET    /metrics                       Prometheus text exposition
//	GET    /healthz                       liveness
//
// Session routes exist only under /v1; unversioned session paths are 404.
// Request bodies are decoded strictly — a typo'd field fails loudly.
//
// POST /v1/sessions and POST /v1/sessions/{id}/answers honor an
// Idempotency-Key header so retried writes are safe; see pkg/api.
//
// Errors are structured: {"error":{"code":"...","message":"..."}}, with the
// stable codes enumerated in pkg/api.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/cluster"
	"querylearn/internal/fault"
	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// maxBodyBytes is the default request-body bound. Answer batches are tiny;
// task files are usually small too, but a big-graph path task is one edge
// line per edge — daemons meant to host such sessions raise the cap with
// WithMaxBodyBytes (querylearnd exposes it as -max-body-bytes).
const maxBodyBytes = 4 << 20

// Server is the HTTP front of a session.Manager.
type Server struct {
	mgr        *session.Manager
	metrics    *metrics
	mux        *http.ServeMux
	idem       *idemCache
	maxBody    int64
	storeStats func() store.Stats // nil when running without a durable store
	// clusterStats is non-nil when the daemon runs clustered: /healthz grows
	// a "cluster" block (node id, per-peer liveness and replication lag,
	// failover counters).
	clusterStats func() cluster.Stats
	adm          *admission      // nil = admission control disabled
	faults       *fault.Registry // nil = no fault injection
	draining     atomic.Bool     // set by Drain: shed new sessions

	// obsReg is the registry handed in by WithObs (nil = private registry).
	obsReg *obs.Registry
	// Slow-request structured logging (WithSlowRequestLog); slowLog nil
	// disables it.
	slowLog       *slog.Logger
	slowThreshold time.Duration
	slowEvery     int64
	slowSeen      atomic.Int64
}

// Option configures a Server at construction.
type Option func(*Server)

// WithStore surfaces the durable store's status: /metrics grows the
// querylearn_store_* stats gauges and /healthz reports journal lag and
// last-compaction stats.
func WithStore(stats func() store.Stats) Option {
	return func(s *Server) { s.storeStats = stats }
}

// WithCluster surfaces the node's cluster view: /healthz grows a "cluster"
// block. The cluster's router must separately be wrapped around
// Handler(); the server itself stays cluster-unaware on the request path.
func WithCluster(stats func() cluster.Stats) Option {
	return func(s *Server) { s.clusterStats = stats }
}

// WithMaxBodyBytes overrides the request-body size cap (default 4 MiB).
// Large graph tasks — one edge line per edge — need a correspondingly large
// cap to be POSTable.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithObs shares an observability registry with the server: its HTTP
// counters and histograms register there, so a store wired with the same
// registry lands in the same /metrics scrape. Without this
// option the server keeps a private registry.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.obsReg = reg }
}

// WithSlowRequestLog enables structured slow-request logging: requests at or
// above threshold emit one slog record carrying the request id, endpoint,
// status, total duration, and the per-phase trace breakdown. every samples
// the stream (1 = every slow request, N = every Nth), so an overloaded
// daemon does not drown in its own slowness reports.
func WithSlowRequestLog(logger *slog.Logger, threshold time.Duration, every int) Option {
	return func(s *Server) {
		s.slowLog = logger
		s.slowThreshold = threshold
		if every < 1 {
			every = 1
		}
		s.slowEvery = int64(every)
	}
}

// handler is the inner handler shape; a returned *apiError is rendered as
// the structured error envelope.
type handler func(w http.ResponseWriter, r *http.Request) *apiError

// New wires the routes onto a fresh mux: the session endpoints under /v1
// and the unversioned infra endpoints (/metrics, /healthz).
func New(mgr *session.Manager, opts ...Option) *Server {
	s := &Server{
		mgr:     mgr,
		mux:     http.NewServeMux(),
		idem:    newIdemCache(idemCacheCap),
		maxBody: maxBodyBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	s.metrics = newMetrics(s.obsReg)
	s.metrics.registerRuntimeGauges()
	s.metrics.registerStatsGauges(mgr, s.storeStats, s.faults)
	if s.adm != nil {
		s.metrics.reg.GaugeFunc("querylearn_admission_inflight",
			"admitted requests currently in flight across all shards", func() float64 {
				var sum int64
				for i := range s.adm.inflight {
					sum += s.adm.inflight[i].Load()
				}
				return float64(sum)
			})
	}
	for _, rt := range []struct {
		method, path, name string
		h                  handler
	}{
		{"POST", "/sessions", "create", s.handleCreate},
		{"POST", "/sessions/resume", "resume", s.handleResume},
		{"GET", "/sessions", "list", s.handleList},
		{"GET", "/sessions/{id}", "status", s.handleStatus},
		{"GET", "/sessions/{id}/question", "question", s.handleQuestion},
		{"GET", "/sessions/{id}/questions", "questions", s.handleQuestions},
		{"POST", "/sessions/{id}/answers", "answers", s.handleAnswers},
		{"GET", "/sessions/{id}/query", "query", s.handleQuery},
		{"GET", "/sessions/{id}/snapshot", "snapshot", s.handleSnapshot},
		{"DELETE", "/sessions/{id}", "delete", s.handleDelete},
	} {
		s.mux.HandleFunc(rt.method+" "+api.V1Prefix+rt.path, s.wrap(rt.name, rt.h))
	}
	s.mux.HandleFunc("GET /metrics", s.wrap("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
	return s
}

// Handler returns the routed handler, for http.Server and httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Obs returns the server's observability registry — the one WithObs shared,
// or the private one the server built.
func (s *Server) Obs() *obs.Registry { return s.metrics.reg }

// apiError is a structured failure: an HTTP status plus the wire error body
// (stable machine code, human message).
type apiError struct {
	Status int
	api.Error
}

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Error: api.Error{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// fromManager maps session-layer sentinels onto wire errors.
func fromManager(err error) *apiError {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return errf(http.StatusNotFound, api.CodeSessionNotFound, "%v", err)
	case errors.Is(err, session.ErrTooManySessions):
		return errf(http.StatusTooManyRequests, api.CodeTooManySessions, "%v", err)
	case errors.Is(err, session.ErrBudgetExhausted):
		return errf(http.StatusPaymentRequired, api.CodeBudgetExhausted, "%v", err)
	case errors.Is(err, session.ErrFailed):
		return errf(http.StatusConflict, api.CodeSessionFailed, "%v", err)
	case errors.Is(err, session.ErrExists):
		return errf(http.StatusConflict, api.CodeSessionExists, "%v", err)
	case errors.Is(err, session.ErrJournal):
		// A durability fault is the server's problem, not the client's:
		// 503 tells well-behaved clients to retry, and keeps disk failures
		// out of the bad-request metrics.
		return errf(http.StatusServiceUnavailable, api.CodeJournalUnavailable, "%v", err)
	}
	return errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
}

// statusWriter captures the response status for the latency histogram's
// status label. The default 200 covers handlers that Write without an
// explicit WriteHeader.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// wrap applies the per-endpoint bookkeeping: request counters, the request
// id, the span trace, latency/phase histograms, slow-request logging, the
// degraded-mode flag, admission control, the request fault point, and the
// body-size cap. The infra endpoints (/metrics, /healthz) bypass admission
// and fault injection so observability survives both overload and chaos.
func (s *Server) wrap(name string, h handler) http.HandlerFunc {
	stats := s.metrics.endpoints[name]
	infra := name == "metrics" || name == "healthz"
	// Phase traces only have consumers when a shared registry or the
	// slow-request log is configured; without either, skip the trace
	// allocation and context rewrap entirely so an unobserved server pays
	// nothing on the hot path (a nil *Trace no-ops everywhere downstream).
	traced := s.obsReg != nil || s.slowLog != nil
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		stats.requests.Inc()
		// Accept a sane client-supplied request id, mint one otherwise, and
		// echo it on every response so both sides log the same correlator.
		rid := r.Header.Get(api.RequestIDHeader)
		if rid == "" || len(rid) > 128 {
			rid = obs.NewRequestID()
		}
		w.Header().Set(api.RequestIDHeader, rid)
		var tr *obs.Trace
		if traced {
			tr = &obs.Trace{RequestID: rid, Start: start}
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer s.finishRequest(name, r, sw, tr, start)
		if _, _, degraded := s.mgr.Degraded(); degraded {
			w.Header().Set(api.DegradedHeader, "true")
		}
		fail := func(e *apiError) {
			s.metrics.errorsVec.With(name, e.Code).Inc()
			e.Error.RequestID = rid
			if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
				sw.Header().Set(api.RetryAfterHeader, retryAfterSeconds)
			}
			s.writeJSON(sw, e.Status, api.ErrorResponse{Error: &e.Error})
		}
		if !infra {
			admitDone := tr.StartPhase("admission.wait")
			release, e := s.admit(name, r)
			admitDone()
			if e != nil {
				fail(e)
				return
			}
			defer release()
			if err := s.faults.Sleep(PointRequest); err != nil {
				fail(errf(http.StatusServiceUnavailable, api.CodeOverloaded,
					"request shed by injected fault: %v", err))
				return
			}
		}
		r.Body = http.MaxBytesReader(sw, r.Body, s.maxBody)
		if e := h(sw, r); e != nil {
			fail(e)
		}
	}
}

// finishRequest records the request's latency and trace phases, and emits
// the sampled slow-request log line.
func (s *Server) finishRequest(name string, r *http.Request, sw *statusWriter, tr *obs.Trace, start time.Time) {
	dur := time.Since(start)
	s.metrics.latency.With(name, statusLabel(sw.status)).Observe(dur)
	if tr == nil {
		return
	}
	phases := tr.Phases()
	for _, ph := range phases {
		s.metrics.phases.With(ph.Name).Observe(ph.Duration)
	}
	if s.slowLog == nil || dur < s.slowThreshold {
		return
	}
	if n := s.slowSeen.Add(1); s.slowEvery > 1 && n%s.slowEvery != 1 {
		return
	}
	s.slowLog.Warn("slow request",
		"request_id", tr.RequestID,
		"endpoint", name,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_seconds", dur.Seconds(),
		"phases", phases,
	)
}

// statusLabel renders an HTTP status as a metric label without allocating
// for the codes this API actually returns.
func statusLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusCreated:
		return "201"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusUnsupportedMediaType:
		return "415"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(status)
}

// encodeBufPool recycles response-encoding buffers across requests; the
// steady-state /v1 hot path allocates no per-request bytes.Buffer or
// rendered-body slice. Buffers that grew past encodeBufMax (a huge session
// list or snapshot) are dropped rather than pinned in the pool.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const encodeBufMax = 1 << 20

// writeJSON renders v exactly like marshalBody (two-space indent plus a
// trailing newline — json.Encoder with SetIndent is byte-identical) but
// through a pooled buffer written straight to the wire.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Our own response types always marshal; defend anyway.
		encodeBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, buf.Bytes())
	if buf.Cap() <= encodeBufMax {
		encodeBufPool.Put(buf)
	}
}

// writeRaw emits pre-rendered JSON — the shared tail of the normal path and
// an idempotent replay, so both produce byte-identical responses.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status line is already out; nothing to do on error
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// readJSON consumes a POST body: it enforces a JSON Content-Type (415
// otherwise), maps the body-size cap onto 413 instead of a generic bad-body
// 400, and decodes strictly (unknown fields rejected). The raw bytes are
// returned for idempotency fingerprinting.
func readJSON(r *http.Request, into any) ([]byte, *apiError) {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || (mt != "application/json" && !isJSONSuffix(mt)) {
		return nil, errf(http.StatusUnsupportedMediaType, api.CodeUnsupportedMediaType,
			"Content-Type %q is not JSON (want application/json)", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, errf(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return nil, errf(http.StatusBadRequest, api.CodeBadBody, "reading body: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeBadJSON, "decoding body: %v", err)
	}
	return body, nil
}

// isJSONSuffix accepts structured-syntax JSON media types (application/foo+json).
func isJSONSuffix(mt string) bool {
	const suffix = "+json"
	return len(mt) > len(suffix) && mt[len(mt)-len(suffix):] == suffix
}

func (s *Server) get(r *http.Request) (*session.Session, *apiError) {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		return nil, fromManager(err)
	}
	return sess, nil
}

// idempotent executes exec under the request's Idempotency-Key, if any:
// a repeated key with the same body replays the stored first response, a
// mismatched or in-flight key conflicts, and only 2xx outcomes are stored
// (a failed attempt releases the key so the retry re-executes).
func (s *Server) idempotent(w http.ResponseWriter, r *http.Request, scope string, body []byte,
	exec func() (int, any, *apiError)) *apiError {
	key := r.Header.Get(api.IdempotencyKeyHeader)
	if key == "" {
		status, v, e := exec()
		if e != nil {
			return e
		}
		s.writeJSON(w, status, v)
		return nil
	}
	sum := sha256.Sum256(body)
	full := scope + "\x00" + key
	ent, state := s.idem.begin(full, hex.EncodeToString(sum[:]))
	switch state {
	case idemReplay:
		w.Header().Set(api.IdempotencyReplayedHeader, "true")
		writeRaw(w, ent.status, ent.body)
		return nil
	case idemInFlight:
		return errf(http.StatusConflict, api.CodeIdempotencyConflict,
			"request with Idempotency-Key %q is still in flight", key)
	case idemMismatch:
		return errf(http.StatusConflict, api.CodeIdempotencyConflict,
			"Idempotency-Key %q was already used with a different request body", key)
	}
	status, v, e := exec()
	if e != nil {
		s.idem.cancel(full)
		return e
	}
	rendered, err := marshalBody(v)
	if err != nil {
		s.idem.cancel(full)
		return errf(http.StatusInternalServerError, api.CodeBadRequest, "encoding response: %v", err)
	}
	s.idem.finish(full, status, rendered)
	writeRaw(w, status, rendered)
	return nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) *apiError {
	var req api.CreateRequest
	body, e := readJSON(r, &req)
	if e != nil {
		return e
	}
	if e := s.validateLimits(req.Limits); e != nil {
		return e
	}
	return s.idempotent(w, r, "create", body, func() (int, any, *apiError) {
		sess, err := s.mgr.CreateTraced(req.Model, req.Task,
			session.CreateOptions{MaxCost: req.MaxCost, Limits: req.Limits}, obs.FromContext(r.Context()))
		if err != nil {
			return 0, nil, fromManager(err)
		}
		return http.StatusCreated, api.CreateResponse{ID: sess.ID(), Model: sess.Model()}, nil
	})
}

// validateLimits vets a create request's optional session limits at the
// HTTP layer — non-negative, no larger than the manager's caps — before the
// idempotency machinery stores anything. The rules live in one place
// (session.Limits.Merge); this is just the early, well-coded 400.
func (s *Server) validateLimits(lim *api.PathLimits) *apiError {
	if _, err := s.mgr.Limits().Merge(lim, true); err != nil {
		return errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	}
	return nil
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) *apiError {
	var snap session.Snapshot
	if _, e := readJSON(r, &snap); e != nil {
		return e
	}
	sess, err := s.mgr.ResumeTraced(snap, obs.FromContext(r.Context()))
	if err != nil {
		return fromManager(err)
	}
	s.writeJSON(w, http.StatusCreated, api.CreateResponse{ID: sess.ID(), Model: sess.Model()})
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) *apiError {
	sess, e := s.get(r)
	if e != nil {
		return e
	}
	s.writeJSON(w, http.StatusOK, sess.Status())
	return nil
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) *apiError {
	sess, e := s.get(r)
	if e != nil {
		return e
	}
	qs, err := sess.QuestionsTraced(1, obs.FromContext(r.Context()))
	if err != nil {
		return fromManager(err)
	}
	resp := api.QuestionResponse{Done: len(qs) == 0}
	if len(qs) > 0 {
		resp.Question = &qs[0]
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleQuestions is GET /v1/sessions/{id}/questions?n=k — the batch-first
// question surface for parallel crowd dispatch: up to k pairwise-distinct
// informative items in one round-trip.
func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request) *apiError {
	sess, e := s.get(r)
	if e != nil {
		return e
	}
	n := 1
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > api.MaxQuestionBatch {
			return errf(http.StatusBadRequest, api.CodeBadParam,
				"n=%q must be an integer in [1, %d]", raw, api.MaxQuestionBatch)
		}
		n = v
	}
	// Under admission pressure the batch size is clamped: parallel dispatch
	// is the cheapest load to shave, and the client can just ask again.
	n = s.clampN(r, n)
	qs, err := sess.QuestionsTraced(n, obs.FromContext(r.Context()))
	if err != nil {
		return fromManager(err)
	}
	s.writeJSON(w, http.StatusOK, api.QuestionsResponse{Done: len(qs) == 0, Questions: qs})
	return nil
}

// handleList is GET /v1/sessions?limit=&page_token= — the paginated live
// session listing.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) *apiError {
	limit := 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > api.MaxListLimit {
			return errf(http.StatusBadRequest, api.CodeBadParam,
				"limit=%q must be an integer in [1, %d]", raw, api.MaxListLimit)
		}
		limit = v
	}
	statuses, next := s.mgr.List(limit, r.URL.Query().Get("page_token"))
	if statuses == nil {
		statuses = []session.Status{} // an empty page is [], not null
	}
	s.writeJSON(w, http.StatusOK, api.SessionList{Sessions: statuses, NextPageToken: next})
	return nil
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) *apiError {
	var req api.AnswersRequest
	body, e := readJSON(r, &req)
	if e != nil {
		return e
	}
	// The idempotency check runs before the session lookup (scoped by the
	// path id): a batch whose 200 was stored and whose session was then
	// deleted or evicted must still replay the success, not 404.
	return s.idempotent(w, r, "answers\x00"+r.PathValue("id"), body, func() (int, any, *apiError) {
		sess, e := s.get(r)
		if e != nil {
			return 0, nil, e
		}
		// The key is also threaded into the session layer, which journals
		// it with the batch: the durable, failover-surviving replay window
		// beneath this server's byte-replay cache. A retry that lands on a
		// peer that adopted the session after a crash still replays instead
		// of double-charging HITs.
		key := r.Header.Get(api.IdempotencyKeyHeader)
		res, replayed, err := sess.AnswerIdemTraced(req.Answers, req.Reconcile, key, obs.FromContext(r.Context()))
		if err != nil {
			return 0, nil, fromManager(err)
		}
		if replayed {
			w.Header().Set(api.IdempotencyReplayedHeader, "true")
		}
		return http.StatusOK, res, nil
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) *apiError {
	sess, e := s.get(r)
	if e != nil {
		return e
	}
	h, err := sess.HypothesisTraced(obs.FromContext(r.Context()))
	if err != nil {
		return fromManager(err)
	}
	s.writeJSON(w, http.StatusOK, h)
	return nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) *apiError {
	sess, e := s.get(r)
	if e != nil {
		return e
	}
	s.writeJSON(w, http.StatusOK, sess.Snapshot())
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) *apiError {
	if err := s.mgr.DeleteTraced(r.PathValue("id"), obs.FromContext(r.Context())); err != nil {
		return fromManager(err)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleMetrics serves the whole registry — HTTP, session, store, cluster,
// planner and runtime families — in the Prometheus text exposition format.
// The format query parameter is ignored, so scrapers that still ask for
// ?format=prometheus keep working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) *apiError {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.reg.WritePrometheus(w) // status line already out
	return nil
}

// healthStore is the durability summary /healthz carries: enough to alarm on
// (journal lag, compaction recency) without scraping /metrics.
type healthStore struct {
	Fsync          string                 `json:"fsync"`
	JournalLag     int64                  `json:"journal_lag"`
	TailEvents     int64                  `json:"tail_events"`
	LastCompaction *store.CompactionStats `json:"last_compaction,omitempty"`
	// SyncError surfaces a sticky fsync/append failure. In batched mode
	// appends keep succeeding while durability is silently gone, so this
	// is the signal health probes must alarm on.
	SyncError string `json:"sync_error,omitempty"`
}

// healthDegraded describes a degraded episode: why the journal is
// unavailable and since when. While degraded the service keeps serving
// reads (status stays 200 "degraded", not 503 — the process is alive and
// useful) and the background probe retries recovery.
type healthDegraded struct {
	Reason string    `json:"reason"`
	Since  time.Time `json:"since"`
}

// healthResponse is the GET /healthz document.
type healthResponse struct {
	// Status is "ok", or "degraded" when the journal is unavailable
	// (mutations 503, reads still served).
	Status   string          `json:"status"`
	Degraded *healthDegraded `json:"degraded,omitempty"`
	Store    *healthStore    `json:"store,omitempty"`
	Cluster  *cluster.Stats  `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) *apiError {
	resp := healthResponse{Status: "ok"}
	if reason, since, degraded := s.mgr.Degraded(); degraded {
		resp.Status = "degraded"
		resp.Degraded = &healthDegraded{Reason: reason, Since: since}
	}
	if s.clusterStats != nil {
		cs := s.clusterStats()
		resp.Cluster = &cs
	}
	if s.storeStats != nil {
		st := s.storeStats()
		resp.Store = &healthStore{
			Fsync:          st.Fsync,
			JournalLag:     st.Lag,
			TailEvents:     st.TailEvents,
			LastCompaction: st.LastCompaction,
			SyncError:      st.SyncError,
		}
		// A server wired with store stats but not a degraded-aware journal
		// (tests stub the stats func) still reports degraded off the sticky
		// error fields.
		if resp.Degraded == nil && st.Degraded {
			resp.Status = "degraded"
			d := &healthDegraded{Reason: st.DegradedReason}
			if st.DegradedSince != nil {
				d.Since = *st.DegradedSince
			}
			resp.Degraded = d
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}
