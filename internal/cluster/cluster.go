package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"querylearn/internal/obs"
	"querylearn/internal/session"
	"querylearn/internal/store"
)

// Peer liveness states. The latch only moves forward: unknown → alive →
// fenced. A fenced peer stays fenced for the life of this process — under a
// static topology, reintroducing a node that may have diverged is an
// operator decision (restart the cluster), not an automatic one.
const (
	stateUnknown = iota
	stateAlive
	stateFenced
)

func stateName(s int) string {
	switch s {
	case stateAlive:
		return "alive"
	case stateFenced:
		return "fenced"
	}
	return "unknown"
}

// Config wires a Cluster.
type Config struct {
	// NodeID is this node's id; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, this node included.
	Peers []Peer
	// Store is this node's journal — the thing peers ship. Required.
	Store *store.Store
	// Client issues probes and ship polls (nil = a dedicated client with
	// sane timeouts).
	Client *http.Client
	// ProbeInterval is the /healthz probe cadence (default 500ms);
	// ProbeTimeout bounds one probe (default 1s). FailAfter consecutive
	// probe failures fence a peer (default 3).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
	// BootGrace forgives probe failures against a peer that has NEVER
	// answered (default 10x ProbeInterval). Fencing is a permanent latch,
	// so a rolling start must not fence a neighbor that is merely slower
	// to bind its listener; a peer that stays dark past the grace is
	// fenced as usual.
	BootGrace time.Duration
	// AckTimeout bounds the replication barrier: how long a mutation's 2xx
	// may wait for every unfenced peer to apply it (default 2s). A timeout
	// releases the response anyway and increments
	// querylearn_cluster_ack_timeouts_total — availability over strictness,
	// but counted.
	AckTimeout time.Duration
	// ShipWait caps a ship long-poll a follower may request (default 10s).
	ShipWait time.Duration
	// MaxBodyBytes caps how much of a request body the router buffers to
	// find a routing key — the resume endpoint's session id lives in the
	// body. It should match the server's -max-body-bytes (default 4 MiB);
	// bodies past the cap are served locally, where the inner server's own
	// limit produces the proper 413.
	MaxBodyBytes int64
	// Secret, when non-empty, must accompany every ship request in
	// X-Querylearn-Ship-Secret; followers present it on their polls.
	// Protects the replication endpoint — and the follower-cursor reports
	// that release the replication barrier — on networks where the listener
	// is reachable beyond the peers. All nodes must agree on the value.
	Secret string
	// Obs receives the cluster metric families; nil uses a private registry.
	Obs *obs.Registry
	// Logger receives membership transitions and promotions (nil = discard).
	Logger *slog.Logger
}

// Cluster is one node's view of the cluster: the ring, the liveness table,
// the followers of every peer, and the replication bookkeeping the router's
// barrier reads.
type Cluster struct {
	cfg    Config
	self   Peer
	others []Peer
	ring   *ring
	st     *store.Store
	mgr    *session.Manager
	log    *slog.Logger
	client *http.Client

	// gate is the routing gate: every routing decision holds it for read,
	// and a promotion holds it for write, so no request can be routed to
	// this node by the post-fence ring before adoption has completed.
	gate sync.RWMutex

	// stateMu guards the liveness table and the follower-cursor table the
	// replication barrier polls; curC is a closed-and-replaced broadcast
	// channel, woken whenever a follower's cursor advances or liveness
	// changes.
	stateMu   sync.Mutex
	state     map[string]int
	followCur map[string]store.Cursor
	curC      chan struct{}

	followers map[string]*follower

	// readers caches one journal TailReader per following peer so each
	// long-poll resumes in O(1) instead of rescanning the file.
	readersMu sync.Mutex
	readers   map[string]*store.TailReader

	stopOnce sync.Once
	stopC    chan struct{}
	wg       sync.WaitGroup

	peerState      *obs.GaugeVec
	lagRecords     *obs.GaugeVec
	lagBytes       *obs.GaugeVec
	shippedRecords *obs.CounterVec
	shippedBytes   *obs.CounterVec
	redirects      *obs.Counter
	ackTimeouts    *obs.Counter
	promotions     *obs.Counter
	adopted        *obs.Counter
}

// New validates the topology and builds the node's cluster state. Start
// must be called (with the session manager) before the router is served.
func New(cfg Config) (*Cluster, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: a journal store is required (clustering ships the WAL)")
	}
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, got %d", len(cfg.Peers))
	}
	var self Peer
	found := false
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer with empty id or address")
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		if p.ID == cfg.NodeID {
			self, found = p, true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: node id %q not in peer list", cfg.NodeID)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.BootGrace <= 0 {
		cfg.BootGrace = 10 * cfg.ProbeInterval
		// A cold binary on a cold page cache takes whole seconds to exec;
		// aggressive probe timings must not shrink the boot window below
		// what a real process needs to come up.
		if cfg.BootGrace < 5*time.Second {
			cfg.BootGrace = 5 * time.Second
		}
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	if cfg.ShipWait <= 0 {
		cfg.ShipWait = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Cluster{
		cfg:       cfg,
		self:      self,
		st:        cfg.Store,
		log:       cfg.Logger.With("node", cfg.NodeID),
		client:    cfg.Client,
		ring:      newRing(cfg.Peers),
		state:     map[string]int{},
		followCur: map[string]store.Cursor{},
		curC:      make(chan struct{}),
		followers: map[string]*follower{},
		readers:   map[string]*store.TailReader{},
		stopC:     make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: cfg.ShipWait + cfg.ProbeTimeout + 5*time.Second}
	}
	reg := cfg.Obs
	c.peerState = reg.GaugeVec("querylearn_cluster_peer_state",
		"peer liveness: 0 unknown, 1 alive, 2 fenced", "peer")
	c.lagRecords = reg.GaugeVec("querylearn_cluster_replication_lag_records",
		"journal records this node's follower is behind the peer", "peer")
	c.lagBytes = reg.GaugeVec("querylearn_cluster_replication_lag_bytes",
		"journal bytes this node's follower is behind the peer", "peer")
	c.shippedRecords = reg.CounterVec("querylearn_cluster_shipped_records_total",
		"journal records shipped from the peer and applied locally", "peer")
	c.shippedBytes = reg.CounterVec("querylearn_cluster_shipped_bytes_total",
		"framed journal bytes shipped from the peer and applied locally", "peer")
	c.redirects = reg.Counter("querylearn_cluster_redirects_total",
		"v1 requests 307-redirected to the owning node")
	c.ackTimeouts = reg.Counter("querylearn_cluster_ack_timeouts_total",
		"mutations released before every unfenced peer acknowledged replication")
	c.promotions = reg.Counter("querylearn_cluster_promotions_total",
		"peer failovers this node promoted a shipped log for")
	c.adopted = reg.Counter("querylearn_cluster_adopted_sessions_total",
		"sessions adopted from fenced peers")
	for _, p := range cfg.Peers {
		if p.ID == cfg.NodeID {
			continue
		}
		c.others = append(c.others, p)
		c.state[p.ID] = stateUnknown
		c.peerState.With(p.ID).Set(stateUnknown)
		c.followers[p.ID] = newFollower(c, p)
	}
	return c, nil
}

// Self reports this node's peer entry.
func (c *Cluster) Self() Peer { return c.self }

// Start attaches the session manager and launches the probe and follower
// loops. The manager's Config.NewID should already point at MintSessionID.
func (c *Cluster) Start(mgr *session.Manager) {
	c.mgr = mgr
	for _, p := range c.others {
		f := c.followers[p.ID]
		c.wg.Add(2)
		go func(p Peer) { defer c.wg.Done(); c.probeLoop(p) }(p)
		go func(f *follower) { defer c.wg.Done(); c.followLoop(f) }(f)
	}
}

// Stop halts the probe and follower loops and releases the cached ship
// readers. It does not close the store.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopC) })
	c.wg.Wait()
	c.readersMu.Lock()
	for id, t := range c.readers {
		t.Close()
		delete(c.readers, id)
	}
	c.readersMu.Unlock()
}

// routable reports whether id may be routed to: self always, peers until
// they are fenced. Unknown peers count as routable — at startup the ring
// must be consistent across nodes before the first probe lands, and a peer
// that is genuinely down gets fenced within FailAfter probe intervals.
func (c *Cluster) routable(id string) bool {
	if id == c.self.ID {
		return true
	}
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.state[id] != stateFenced
}

// owner maps a session id to the peer that owns it under the current
// liveness view. Callers on the request path hold the routing gate.
func (c *Cluster) owner(sessionID string) (Peer, bool) {
	return c.ring.owner(sessionID, c.routable)
}

// Owns reports whether this node owns sessionID right now.
func (c *Cluster) Owns(sessionID string) bool {
	p, ok := c.owner(sessionID)
	return ok && p.ID == c.self.ID
}

// MintSessionID mints session ids this node owns, by rejection sampling the
// manager's id format against the ring. With N nodes each draw hits ~1/N,
// so the loop is a handful of iterations in practice; the cap only guards
// against a pathological ring.
func (c *Cluster) MintSessionID() string {
	var id string
	for i := 0; i < 4096; i++ {
		var b [12]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("cluster: crypto/rand failed: %v", err))
		}
		id = "s" + hex.EncodeToString(b[:])
		if c.Owns(id) {
			return id
		}
	}
	return id
}

// setAlive records a successful probe; reports whether the peer just
// transitioned out of unknown.
func (c *Cluster) setAlive(id string) bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if c.state[id] != stateUnknown {
		return false
	}
	c.state[id] = stateAlive
	c.peerState.With(id).Set(stateAlive)
	// Liveness changes what the barrier waits on; wake it.
	close(c.curC)
	c.curC = make(chan struct{})
	return true
}

// fence latches a peer dead and promotes this node's copy of its journal:
// under the routing gate, the state flips to fenced, the follower is sealed
// and the ring-share of the peer's sessions that now maps here is adopted.
// Flipping inside the gate matters: a request routed between the flip and
// the adoption would reach this node's ring arc before the sessions exist
// here, and 404. Every survivor runs this independently and the shares are
// disjoint by construction.
func (c *Cluster) fence(id string) {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.stateMu.Lock()
	if c.state[id] == stateFenced {
		c.stateMu.Unlock()
		return
	}
	c.state[id] = stateFenced
	c.peerState.With(id).Set(stateFenced)
	close(c.curC)
	c.curC = make(chan struct{})
	c.stateMu.Unlock()

	f := c.followers[id]
	snaps, cur := f.seal()
	mine := snaps[:0]
	for _, snap := range snaps {
		if p, ok := c.owner(snap.ID); ok && p.ID == c.self.ID {
			mine = append(mine, snap)
		}
	}
	c.promotions.Inc()
	n := 0
	var err error
	if c.mgr != nil {
		n, err = c.mgr.Adopt(mine)
	}
	c.adopted.Add(int64(n))
	c.log.Warn("peer fenced, follower log promoted",
		"peer", id, "shipped_cursor", fmt.Sprintf("%d:%d", cur.Gen, cur.Records),
		"sessions_shipped", len(snaps), "sessions_adopted", n, "adopt_err", err)
}

// knownPeer reports whether id names a configured peer (any liveness state).
func (c *Cluster) knownPeer(id string) bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	_, ok := c.state[id]
	return ok
}

// recordFollowerCursor notes how far a following peer has applied our
// journal (reported as the from_lsn of its next ship poll) and wakes the
// replication barrier. The cursor is re-proven against the live journal
// before it counts: the report is just a query parameter on an HTTP
// request, so a cursor from a previous journal epoch (or one claiming
// records the journal does not have) must never satisfy the barrier —
// that would release acknowledgements for mutations no follower holds.
func (c *Cluster) recordFollowerCursor(peerID string, cur store.Cursor) {
	now := c.st.Cursor()
	if cur.Gen != now.Gen || cur.Records > now.Records {
		return
	}
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	if _, ok := c.state[peerID]; !ok {
		return
	}
	c.followCur[peerID] = cur
	close(c.curC)
	c.curC = make(chan struct{})
}

// awaitReplication blocks until every unfenced peer's follower cursor covers
// target, the timeout passes (false), or the cluster stops. This is the
// replication barrier under every locally-served mutation's 2xx. Peers not
// yet probed (unknown) count: they are routable, so they inherit sessions on
// the ring if this node dies, and an ack released without them could be
// lost. At boot a mutation therefore waits (up to the timeout) until every
// peer's follower has polled once.
func (c *Cluster) awaitReplication(target store.Cursor, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.stateMu.Lock()
		covered := true
		for id, st := range c.state {
			if st == stateFenced {
				continue
			}
			cur, ok := c.followCur[id]
			if !ok || !c.st.CursorCovers(cur, target) {
				covered = false
				break
			}
		}
		ch := c.curC
		c.stateMu.Unlock()
		if covered {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		case <-c.stopC:
			t.Stop()
			return false
		}
	}
}

// hasLivePeers reports whether the barrier has anyone to wait for.
func (c *Cluster) hasLivePeers() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	for _, st := range c.state {
		if st != stateFenced {
			return true
		}
	}
	return false
}

// PeerStats is one row of the cluster status block.
type PeerStats struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"` // "self", "unknown", "alive", or "fenced"
	// Role is "owner" while the peer serves its own ring arc, "taken-over"
	// once it is fenced and survivors have adopted its sessions.
	Role string `json:"role"`
	// Follower-side replication view of this peer's journal (absent for
	// self): how far behind we are and how much we have applied.
	LagRecords     int64 `json:"lag_records,omitempty"`
	LagBytes       int64 `json:"lag_bytes,omitempty"`
	ShippedRecords int64 `json:"shipped_records,omitempty"`
	ShippedBytes   int64 `json:"shipped_bytes,omitempty"`
	// Sessions is the size of the warm standby the follower holds (or held,
	// when sealed).
	Sessions int `json:"sessions,omitempty"`
}

// Stats is the cluster block /healthz embeds.
type Stats struct {
	NodeID          string      `json:"node_id"`
	Peers           []PeerStats `json:"peers"`
	Redirects       int64       `json:"redirects"`
	AckTimeouts     int64       `json:"ack_timeouts"`
	Promotions      int64       `json:"promotions"`
	AdoptedSessions int64       `json:"adopted_sessions"`
}

// Stats snapshots the node's cluster view.
func (c *Cluster) Stats() Stats {
	s := Stats{
		NodeID:          c.self.ID,
		Redirects:       c.redirects.Value(),
		AckTimeouts:     c.ackTimeouts.Value(),
		Promotions:      c.promotions.Value(),
		AdoptedSessions: c.adopted.Value(),
	}
	s.Peers = append(s.Peers, PeerStats{ID: c.self.ID, Addr: c.self.Addr, State: "self", Role: "owner"})
	for _, p := range c.others {
		c.stateMu.Lock()
		st := c.state[p.ID]
		c.stateMu.Unlock()
		row := PeerStats{ID: p.ID, Addr: p.Addr, State: stateName(st), Role: "owner"}
		if st == stateFenced {
			row.Role = "taken-over"
		}
		f := c.followers[p.ID]
		row.LagRecords, row.LagBytes, row.Sessions = f.lagStats()
		row.ShippedRecords = c.shippedRecords.With(p.ID).Value()
		row.ShippedBytes = c.shippedBytes.With(p.ID).Value()
		s.Peers = append(s.Peers, row)
	}
	return s
}
