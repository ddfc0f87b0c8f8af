// Package querylearn is a Go reproduction of "Learning Queries for
// Relational, Semi-structured, and Graph Databases" (Ciucanu, SIGMOD/PODS
// 2013 PhD Symposium): learning algorithms for twig queries on XML,
// join-like queries on relations, and path queries on graphs, together with
// the unordered-XML multiplicity schemas, the interactive learning
// framework, the crowdsourcing cost model, and the four cross-model
// data-exchange pipelines of the paper's Figure 1.
//
// The public surface lives in internal/core (facade), with the
// model-specific engines in internal/twig, internal/twiglearn,
// internal/schema, internal/schemalearn, internal/relational,
// internal/rellearn, internal/graph, internal/graphlearn,
// internal/interact, internal/crowd, internal/exchange, and the benchmark
// substrate in internal/xmark and internal/experiments. See README.md for a
// tour; the experiment tables (cmd/benchrunner, indexed in
// internal/experiments/tables.go) and their recorded runs (BENCH_PR*.json)
// are the claim-by-claim reproduction record.
//
// The serving stack layers the interactive loop into a durable daemon; each
// layer only sees the one below it, and both ends of the wire share one
// protocol definition:
//
//	pkg/client           typed Go SDK over the /v1 protocol: context-aware,
//	        │            retries 503s, generates Idempotency-Keys so
//	        │            retried writes are safe (external consumers,
//	        │            the replay driver, and the experiments all use it)
//	        ▼
//	pkg/api              the v1 wire protocol: request/response bodies,
//	        │            question/answer/snapshot types, stable error
//	        │            codes — imported by both sides (internal/session
//	        ▼            aliases these types as its dialogue vocabulary)
//	cmd/querylearnd      daemon: flags, boot-time recovery, TTL sweep and
//	        │            compaction timers, hardened http.Server, final
//	        │            flush on graceful shutdown
//	        ▼
//	internal/cluster     optional multi-node layer (-cluster-node/-peers),
//	        │            wrapped around the server's handler: a consistent-
//	        │            hash ring routes each session to the node that
//	        │            minted it (307 redirects, X-Querylearn-Node on
//	        │            every response); followers replicate each owner's
//	        │            journal over GET /v1/cluster/ship (raw on-disk
//	        │            frames, resumable by LSN cursor) into in-memory
//	        │            standbys — never their own journal, so fleet
//	        │            append capacity scales with node count; a
//	        │            /healthz prober fences dead peers (permanent
//	        │            latch, boot-grace for rolling starts) and
//	        │            survivors adopt the fenced node's sessions; a
//	        │            replication barrier holds each mutation's
//	        │            response until every unfenced peer's follower
//	        │            cursor covers it
//	        ▼
//	internal/server      versioned JSON HTTP API (/v1/...) over the
//	        │            sessions, with batch question dispatch, paginated
//	        │            listing, and idempotent writes; /metrics is the
//	        │            Prometheus exposition of the shared registry and
//	        │            /healthz a JSON liveness/durability summary
//	        ▼
//	internal/session     Manager of live dialogues (sharded, per-session
//	        │            locks, budgets, TTL); every mutation is one Event
//	        │            through a single commit path, observed by an
//	        ▼            optional Journal (nil = in-memory)
//	internal/store       append-only write-ahead journal: length-prefixed
//	        │            CRC-checked records, group-commit fsync, snapshot
//	        │            compaction; recovery folds the log into
//	        │            session.Snapshots that Manager.Recover registers
//	        ▼            cold (each learner is built on first touch)
//	internal/codec       journal record wire format v2: varint/zigzag binary
//	                     event encoding with a per-file string intern table
//	                     (dictionary records), dispatched per record by its
//	                     first byte so v1 JSON and v2 mix in one file; the
//	                     store writes v2, reads both, and upgrades v1
//	                     files to v2 at their first compaction
//
// Observability cuts across the serving stack rather than sitting in it:
// internal/obs provides the zero-dependency metrics core (atomic
// log-bucketed latency histograms, labeled counters/gauges, a Prometheus
// text-exposition encoder and strict lint parser, per-request phase traces)
// and every serving layer records into one shared registry — the server its
// per-endpoint/per-code request histograms, the session manager its
// lock/learner/journal phases, the store its append/fsync/compaction
// timings and journal-lag gauges. GET /metrics renders the registry in the
// Prometheus text exposition format (one surface; any format parameter is
// ignored); the daemon
// adds pprof + runtime/metrics on -debug-addr and a sampled slow-request
// log keyed by X-Request-Id. internal/loadgen + cmd/loadgen drive the stack
// open-loop (Poisson arrivals, zipf session popularity) for the T16
// saturation curves. See README.md's "Observability".
//
// Query planning cuts across the evaluation cores the same way:
// internal/plan is the shared greedy planning layer — constant-time
// cardinality estimates read from structures the engines already hold (CSR
// degree rows, candidate popcounts, pool sizes), cheapest-first ordering
// (Pick/Order), and a streaming Sink contract with early
// termination. graph.EvalPairsMany puts its 64-lane bit-parallel passes on
// the pool side with fewer distinct nodes (sources forward, destinations
// backward) once for a whole query set, and each pass walks a trie of the
// queries' atom sequences so shared atoms are evaluated once;
// graph.Selects picks a probe's direction from frontier estimates,
// rellearn's semijoin search re-ranks witness families per node by
// surviving-candidate popcount, and a graphlearn session build judges its
// candidates on the labeled pairs in one shared call before the survivors'
// pool-wide one, so an eliminated candidate never pays for the pool.
// Decisions surface as querylearn_plan_* metrics and a "plan"
// request-trace phase. There is no planning switch: the naive oracles are
// the unplanned reference the differential tests compare against. See
// README.md's "Query planning".
//
// Scale: interactive path sessions run on a sparse, pool-projected version
// space — candidate membership is interned over the question pool (pool ∪
// task examples ∪ seed) and evaluated by the pool-restricted
// graph.EvalPairsMany, so per-session memory is O(candidates × pool) bits and
// the old dense-bitset 4096-node graph cap is gone. Session limits are
// daemon flags (-path-max-nodes, default one million nodes; -path-pool-limit;
// -path-pool-max-len; -max-body-bytes for the edge-list bodies) that create
// requests may tighten per session via the "limits" field; the limits travel
// inside snapshots and journal events so resume/recovery rebuilds the exact
// version space. See README.md's "Scale limits".
//
// Deprecation policy, amended: the pre-v1 unversioned routes (POST
// /sessions, GET /sessions/{id}/question, ...) were served as deprecated
// aliases of their /v1 successors, to be removed no earlier than two minor
// releases after v1. This release removes them ahead of that schedule: the
// bundled SDK, tools and benchmark all speak /v1, and a second route set,
// lax decoder and cluster reverse proxy were carrying cost for no caller.
// Unversioned session paths now answer 404; /v1 is the only protocol.
package querylearn
