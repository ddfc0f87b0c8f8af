// Command querylearnd serves interactive query-learning sessions over HTTP —
// the daemon form of the paper's question/answer loop, hosting many
// concurrent dialogues with TTL eviction and crowd-budget accounting.
//
// Usage:
//
//	querylearnd [flags]                      serve the JSON API
//	querylearnd [flags] replay <model> <task-file>
//
// Serve mode binds -addr and exposes the endpoints documented in
// internal/server. With -data-dir every session mutation is journaled
// write-ahead through internal/store and the daemon recovers all live
// dialogues on restart; -fsync picks the durability mode and -compact-every
// the journal rewrite period (see the README's Durability section). Replay
// mode is the end-to-end driver: it learns the goal query from the full task
// in-process (the batch learner plays the user, the paper's simulation
// protocol), strips the task down to its seed, then re-learns it
// interactively over HTTP against an in-process server, printing the full
// dialogue — the T8-style interactive runs, over the wire.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"querylearn/internal/cluster"
	"querylearn/internal/fault"
	"querylearn/internal/loadgen"
	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
	"querylearn/pkg/client"
)

// hardenServer applies the slowloris and slow-drain guards every listener
// gets: a bare http.Server trusts clients to send headers and bodies
// promptly, and a few hundred idling connections would otherwise pin the
// daemon's file descriptors forever.
func hardenServer(srv *http.Server) *http.Server {
	srv.ReadHeaderTimeout = 5 * time.Second
	srv.ReadTimeout = 30 * time.Second
	srv.WriteTimeout = 60 * time.Second
	srv.IdleTimeout = 2 * time.Minute
	return srv
}

// storeConfig is the durability flag block.
type storeConfig struct {
	dataDir      string
	fsync        string
	compactEvery time.Duration
	// faults is the -fault-spec registry (nil in production runs); the
	// store registers its injection points here on open.
	faults *fault.Registry
	// obs is the daemon's shared metrics registry; the store contributes
	// its journal/fsync/compaction instruments to the same /metrics scrape.
	obs *obs.Registry
}

// robustConfig is the overload/chaos flag block.
type robustConfig struct {
	faultSpec   string
	maxInflight int
}

// obsConfig is the observability flag block.
type obsConfig struct {
	debugAddr     string
	slowThreshold time.Duration
	slowEvery     int
}

// clusterConfig is the -cluster-* flag block. Both node and peers must be
// set to enable clustering, and clustering requires a journal (-data-dir):
// the journal is the thing peers ship.
type clusterConfig struct {
	node          string
	peers         string
	probeInterval time.Duration
	failAfter     int
	ackTimeout    time.Duration
	secret        string
}

func (cc clusterConfig) enabled() bool { return cc.node != "" || cc.peers != "" }

// openManager builds the session manager, and — when a data directory is
// configured — opens the journal under it, registers every surviving session
// through the Resume machinery (each builds its learner on first use), and
// wires the store in as the manager's journal. The returned store is nil
// when running in-memory.
// The optional prep hook runs between store open and manager construction —
// the cluster layer uses it to install its ring-aware id minter, which needs
// the store but must exist before the manager does.
func openManager(cfg session.Config, sc storeConfig, prep func(*store.Store, *session.Config) error) (*session.Manager, *store.Store, error) {
	if sc.dataDir == "" {
		return session.NewManager(cfg), nil, nil
	}
	st, snaps, err := store.Open(sc.dataDir, store.Options{Fsync: sc.fsync, Faults: sc.faults, Obs: sc.obs})
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = st
	if prep != nil {
		if err := prep(st, &cfg); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	mgr := session.NewManager(cfg)
	n, recErr := mgr.Recover(snaps)
	if recErr != nil {
		fmt.Fprintf(os.Stderr, "querylearnd: recovery skipped invalid snapshots: %v\n", recErr)
	}
	rs := st.Stats().Recovered
	fmt.Fprintf(os.Stderr, "querylearnd: recovered %d of %d journaled sessions from %s (%d events); each builds its learner on first use\n",
		n, rs.Sessions, sc.dataDir, rs.Events)
	if rs.TornTail != "" {
		fmt.Fprintf(os.Stderr, "querylearnd: journal had a torn tail (%d bytes dropped): %s\n",
			rs.DroppedBytes, rs.TornTail)
	}
	return mgr, st, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "querylearnd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("querylearnd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	ttl := fs.Duration("ttl", 30*time.Minute, "evict sessions idle longer than this (0 = never)")
	maxSessions := fs.Int("max-sessions", 10000, "cap on live sessions (0 = unlimited)")
	shards := fs.Int("shards", 16, "lock shards in the session manager")
	costPerHIT := fs.Float64("cost-per-hit", 0, "dollar cost per submitted label")
	pathMaxNodes := fs.Int("path-max-nodes", session.DefaultPathMaxNodes, "cap on a path task's graph size in nodes (requests may tighten, never exceed)")
	pathPoolLimit := fs.Int("path-pool-limit", session.DefaultPathPoolLimit, "cap on a path session's question-pool pairs")
	pathPoolMaxLen := fs.Int("path-pool-max-len", session.DefaultPathPoolMaxLen, "cap on pool pairs' shortest-path length in hops")
	maxBody := fs.Int64("max-body-bytes", 64<<20, "request body size cap; big-graph tasks are one edge line per edge")
	sweep := fs.Duration("sweep-interval", time.Minute, "TTL sweep period")
	dataDir := fs.String("data-dir", "", "journal live sessions under this directory and recover them on restart (empty = in-memory only)")
	fsync := fs.String("fsync", store.FsyncBatched, "journal durability: off (OS decides), batched (background group commit), always (fsync per mutation)")
	compactEvery := fs.Duration("compact-every", 5*time.Minute, "rewrite the journal as snapshots this often (0 = only at boot)")
	maxInflight := fs.Int("max-inflight", 64, "per-shard in-flight request budget; excess requests are shed with 429 overloaded (0 = unlimited)")
	faultSpec := fs.String("fault-spec", "", `DEV ONLY: arm deterministic fault injection, e.g. "store.append=error:times=3,server.request=latency:delay=50ms" (see internal/fault)`)
	debugAddr := fs.String("debug-addr", "", "serve pprof and runtime/metrics on this address (empty = off; bind loopback, the listener is unauthenticated)")
	slowThreshold := fs.Duration("slow-log-threshold", 500*time.Millisecond, "log requests slower than this with their phase breakdown (0 = off)")
	slowEvery := fs.Int("slow-log-every", 1, "sample 1 in N slow requests for the structured log")
	clusterNode := fs.String("cluster-node", "", "this node's id in -cluster-peers; enables cluster mode (requires -data-dir)")
	clusterPeers := fs.String("cluster-peers", "", `static cluster membership as "id=host:port,..." including this node`)
	clusterProbe := fs.Duration("cluster-probe-interval", 500*time.Millisecond, "peer /healthz probe cadence")
	clusterFailAfter := fs.Int("cluster-fail-after", 3, "consecutive probe failures before a peer is fenced and taken over")
	clusterAck := fs.Duration("cluster-ack-timeout", 2*time.Second, "replication barrier: how long a mutation's response may wait for followers")
	clusterSecret := fs.String("cluster-secret", "", "shared secret required on /v1/cluster/ship; set the same value on every node (empty = no check)")
	batch := fs.Int("batch", 1, "replay mode: questions fetched and answered per round-trip (parallel crowd dispatch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := session.Config{
		Shards:      *shards,
		MaxSessions: *maxSessions,
		TTL:         *ttl,
		CostPerHIT:  *costPerHIT,
		Limits: session.Limits{
			PathMaxNodes:   *pathMaxNodes,
			PathPoolLimit:  *pathPoolLimit,
			PathPoolMaxLen: *pathPoolMaxLen,
		},
	}
	sc := storeConfig{dataDir: *dataDir, fsync: *fsync, compactEvery: *compactEvery}
	if *maxBody <= 0 {
		return fmt.Errorf("-max-body-bytes must be positive (got %d)", *maxBody)
	}
	cc := clusterConfig{
		node: *clusterNode, peers: *clusterPeers,
		probeInterval: *clusterProbe, failAfter: *clusterFailAfter, ackTimeout: *clusterAck,
		secret: *clusterSecret,
	}
	if cc.enabled() {
		if cc.node == "" || cc.peers == "" {
			return fmt.Errorf("cluster mode needs both -cluster-node and -cluster-peers")
		}
		if sc.dataDir == "" {
			return fmt.Errorf("cluster mode needs -data-dir: peers replicate the journal")
		}
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return serve(*addr, cfg, *sweep, sc,
			robustConfig{faultSpec: *faultSpec, maxInflight: *maxInflight},
			obsConfig{debugAddr: *debugAddr, slowThreshold: *slowThreshold, slowEvery: *slowEvery},
			cc, *maxBody)
	}
	if rest[0] == "replay" && len(rest) == 3 {
		data, err := os.ReadFile(rest[2])
		if err != nil {
			return err
		}
		return replay(rest[1], string(data), cfg, *batch, *maxBody, out)
	}
	return fmt.Errorf("usage: querylearnd [flags] [replay {twig|join|path|schema} <task-file>]")
}

// serve runs the daemon until SIGINT/SIGTERM, sweeping expired sessions and
// compacting the journal in the background.
func serve(addr string, cfg session.Config, sweepEvery time.Duration, sc storeConfig, rc robustConfig, oc obsConfig, cc clusterConfig, maxBody int64) error {
	var reg *fault.Registry
	if rc.faultSpec != "" {
		reg = fault.NewRegistry()
		sc.faults = reg
	}
	// One registry for the whole process: the store's journal instruments
	// and the server's request instruments land in the same scrape.
	obsReg := obs.NewRegistry()
	sc.obs = obsReg
	var clu *cluster.Cluster
	var prep func(*store.Store, *session.Config) error
	if cc.enabled() {
		peers, err := cluster.ParsePeers(cc.peers)
		if err != nil {
			return err
		}
		prep = func(st *store.Store, cfg *session.Config) error {
			c, err := cluster.New(cluster.Config{
				NodeID:        cc.node,
				Peers:         peers,
				Store:         st,
				ProbeInterval: cc.probeInterval,
				FailAfter:     cc.failAfter,
				AckTimeout:    cc.ackTimeout,
				MaxBodyBytes:  maxBody,
				Secret:        cc.secret,
				Obs:           obsReg,
				Logger:        slog.New(slog.NewJSONHandler(os.Stderr, nil)),
			})
			if err != nil {
				return err
			}
			clu = c
			// Mint only ids this node owns on the ring, so creates never
			// bounce through a redirect.
			cfg.NewID = c.MintSessionID
			return nil
		}
	}
	mgr, st, err := openManager(cfg, sc, prep)
	if err != nil {
		return err
	}
	opts := []server.Option{server.WithMaxBodyBytes(maxBody), server.WithObs(obsReg)}
	if st != nil {
		opts = append(opts, server.WithStore(st.Stats))
	}
	if clu != nil {
		opts = append(opts, server.WithCluster(clu.Stats))
	}
	if rc.maxInflight > 0 {
		opts = append(opts, server.WithAdmission(rc.maxInflight, cfg.Shards))
	}
	if reg != nil {
		opts = append(opts, server.WithFaults(reg))
	}
	if oc.slowThreshold > 0 {
		opts = append(opts, server.WithSlowRequestLog(
			slog.New(slog.NewJSONHandler(os.Stderr, nil)), oc.slowThreshold, oc.slowEvery))
	}
	qsrv := server.New(mgr, opts...)
	handler := http.Handler(qsrv.Handler())
	if clu != nil {
		// The router must be the outermost layer: ownership redirects fire
		// before any local side effect, and ship requests never reach the
		// API mux.
		handler = clu.Router(handler)
		clu.Start(mgr)
	}
	srv := hardenServer(&http.Server{Addr: addr, Handler: handler})
	if reg != nil {
		// Arm after both the store and the server registered their points,
		// so a typo in the spec is caught here instead of silently ignored.
		if err := reg.ArmSpec(rc.faultSpec); err != nil {
			if st != nil {
				st.Close()
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "querylearnd: FAULT INJECTION ARMED (dev only): %s\n", rc.faultSpec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if oc.debugAddr != "" {
		if !isLoopback(oc.debugAddr) {
			fmt.Fprintf(os.Stderr, "querylearnd: WARNING: -debug-addr %s is not loopback; pprof is unauthenticated and leaks heap contents\n", oc.debugAddr)
		}
		dbg := hardenServer(&http.Server{Addr: oc.debugAddr, Handler: debugHandler()})
		// Profile captures run longer than the serving timeouts allow.
		dbg.ReadTimeout, dbg.WriteTimeout = 0, 0
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "querylearnd: debug listener: %v\n", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "querylearnd: debug listener (pprof, runtime metrics) on %s\n", oc.debugAddr)
	}

	if st != nil {
		// Background journal probe: while the store is degraded, retry a
		// healing compaction with exponential backoff (1s doubling to 30s).
		mgr.StartJournalProbe(ctx, time.Second, 30*time.Second)
	}

	if cfg.TTL > 0 && sweepEvery > 0 {
		go func() {
			t := time.NewTicker(sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := mgr.SweepExpired(); n > 0 {
						fmt.Fprintf(os.Stderr, "querylearnd: evicted %d expired sessions\n", n)
					}
				}
			}
		}()
	}
	if st != nil && sc.compactEvery > 0 {
		go func() {
			t := time.NewTicker(sc.compactEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					// A tick can race the shutdown path's final
					// compact+close; ErrClosed there is not a fault.
					if _, err := mgr.Compact(); err != nil && !errors.Is(err, store.ErrClosed) {
						fmt.Fprintf(os.Stderr, "querylearnd: compaction failed: %v\n", err)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	durability := "in-memory"
	if st != nil {
		durability = fmt.Sprintf("journal %s fsync=%s compact-every=%s", sc.dataDir, sc.fsync, sc.compactEvery)
	}
	fmt.Fprintf(os.Stderr, "querylearnd: serving on %s (ttl %s, max %d sessions, %d shards, %s)\n",
		addr, cfg.TTL, cfg.MaxSessions, cfg.Shards, durability)
	if clu != nil {
		fmt.Fprintf(os.Stderr, "querylearnd: cluster node %s of [%s]\n", cc.node, cc.peers)
	}
	select {
	case err := <-errc:
		if clu != nil {
			clu.Stop()
		}
		if st != nil {
			st.Close()
		}
		return err
	case <-ctx.Done():
	}
	// Stop accepting new sessions first: in-flight dialogues finish under
	// Shutdown's grace period while creates/resumes bounce with Retry-After.
	qsrv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if clu != nil {
		// Stop shipping and probing before the final compact rewrites the
		// journal out from under parked tail readers.
		clu.Stop()
	}
	if st != nil {
		// Final flush: compact so the next boot replays one snapshot per
		// session, then fsync whatever the shutdown raced.
		if _, cerr := mgr.Compact(); cerr != nil {
			fmt.Fprintf(os.Stderr, "querylearnd: shutdown compaction failed: %v\n", cerr)
		}
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// isLoopback reports whether a listen address is bound to localhost.
func isLoopback(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	if host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// debugHandler serves pprof and a runtime/metrics dump on an explicit mux —
// the net/http/pprof side effects on DefaultServeMux never reach the API
// listener, which stays free of debug surfaces.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", func(w http.ResponseWriter, _ *http.Request) {
		descs := metrics.All()
		samples := make([]metrics.Sample, len(descs))
		for i, d := range descs {
			samples[i].Name = d.Name
		}
		metrics.Read(samples)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
			case metrics.KindFloat64:
				fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
			}
		}
	})
	return mux
}

// replay drives one full interactive run over HTTP via the pkg/client SDK.
// It returns an error if the dialogue fails; the learned hypothesis and
// transcript go to out. With batch > 1 each round fetches up to that many
// questions at once and answers them as one batch — the paper's parallel
// crowd dispatch.
func replay(model, taskSrc string, cfg session.Config, batch int, maxBody int64, out io.Writer) error {
	seedTask, oracle, goal, err := loadgen.PrepareOracle(model, taskSrc)
	if err != nil {
		return err
	}
	if batch < 1 || batch > api.MaxQuestionBatch {
		return fmt.Errorf("-batch must be in [1, %d]", api.MaxQuestionBatch)
	}

	mgr := session.NewManager(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The in-process server honors -max-body-bytes like serve mode: a
	// big-graph task file is a big create body.
	srv := hardenServer(&http.Server{Handler: server.New(mgr, server.WithMaxBodyBytes(maxBody)).Handler()})
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "replaying %s task against %s (batch %d)\n", model, base, batch)
	fmt.Fprintf(out, "goal (batch-learned in-process): %s\n", indentLines(goal))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(base, client.WithHTTPClient(&http.Client{Timeout: 30 * time.Second}))
	created, err := c.Create(ctx, api.CreateRequest{Model: model, Task: seedTask})
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	questions := 0
	for {
		qs, err := c.Questions(ctx, created.ID, batch)
		if err != nil {
			return fmt.Errorf("questions: %w", err)
		}
		if len(qs) == 0 {
			break
		}
		answers := make([]api.Answer, 0, len(qs))
		for _, q := range qs {
			ans, err := oracle(q.Item)
			if err != nil {
				return err
			}
			questions++
			verdict := "no"
			if ans {
				verdict = "yes"
			}
			fmt.Fprintf(out, "Q%d (%d open) %s -> %s\n", questions, q.Remaining, q.Prompt, verdict)
			answers = append(answers, api.Answer{Item: q.Item, Positive: ans})
		}
		if _, err := c.Answers(ctx, created.ID, answers, api.ReconcileNone); err != nil {
			return fmt.Errorf("answers: %w", err)
		}
	}
	hyp, err := c.Hypothesis(ctx, created.ID)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	fmt.Fprintf(out, "converged after %d questions\n", questions)
	fmt.Fprintf(out, "learned over HTTP: %s\n", indentLines(hyp.Query))
	return nil
}

// indentLines keeps multi-line hypotheses (schemas) readable in the
// transcript.
func indentLines(s string) string {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, "\n") {
		return s
	}
	return "\n  " + strings.ReplaceAll(s, "\n", "\n  ")
}
