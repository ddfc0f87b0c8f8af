package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"querylearn/internal/cluster"
	"querylearn/internal/loadgen"
	"querylearn/internal/obs"
	"querylearn/internal/server"
	"querylearn/internal/session"
	"querylearn/internal/store"
	"querylearn/pkg/api"
)

// node is one in-process cluster member: a real store on disk, a real
// manager, the cluster layer, and an HTTP server on a loopback port.
type node struct {
	id   string
	base string
	st   *store.Store
	mgr  *session.Manager
	c    *cluster.Cluster
	hs   *http.Server
	reg  *obs.Registry
	dead bool
}

// startCluster boots n nodes on loopback ports with fast failure-detection
// timings and registers cleanup.
func startCluster(t *testing.T, n int) []*node {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()}
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = startNode(t, peers[i], peers, lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if !nd.dead {
				nd.hs.Close()
				nd.c.Stop()
				nd.st.Close()
			}
		}
	})
	return nodes
}

func startNode(t *testing.T, self cluster.Peer, peers []cluster.Peer, ln net.Listener) *node {
	t.Helper()
	reg := obs.NewRegistry()
	st, snaps, err := store.Open(t.TempDir(), store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{
		NodeID:        self.ID,
		Peers:         peers,
		Store:         st,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailAfter:     3,
		AckTimeout:    2 * time.Second,
		ShipWait:      200 * time.Millisecond,
		// The harness pre-binds every listener, so peers answer on the
		// first probe; a short grace keeps the expiry test fast.
		BootGrace: 250 * time.Millisecond,
		// Every follower poll in these tests proves the secret round-trips.
		Secret: testShipSecret,
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := session.NewManager(session.Config{
		Shards:     4,
		CostPerHIT: 0.05,
		Journal:    st,
		NewID:      c.MintSessionID,
	})
	if _, err := mgr.Recover(snaps); err != nil {
		t.Fatal(err)
	}
	c.Start(mgr)
	srv := server.New(mgr,
		server.WithObs(reg),
		server.WithStore(st.Stats),
		server.WithCluster(c.Stats))
	hs := &http.Server{Handler: c.Router(srv.Handler())}
	go hs.Serve(ln)
	return &node{
		id: self.ID, base: "http://" + self.Addr,
		st: st, mgr: mgr, c: c, hs: hs, reg: reg,
	}
}

// kill simulates a crash: the listener and all connections drop, the journal
// is abandoned un-flushed, the cluster loops stop. Nothing is checkpointed.
func (nd *node) kill() {
	nd.dead = true
	nd.hs.Close()
	nd.c.Stop()
	nd.st.Abandon()
}

// noRedirect is an http.Client that surfaces 307s instead of following them.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

// testShipSecret is the -cluster-secret every harness node is started with.
const testShipSecret = "harness-ship-secret"

// shipGet issues one authenticated ship poll and returns the response with
// its body unread; callers close it.
func shipGet(t *testing.T, base, query string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/cluster/ship?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Querylearn-Ship-Secret", testShipSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, hc *http.Client, url string, into any) *http.Response {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if into != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

// createSession creates one session through nd and returns its id. Minted
// ids are always owned by the creating node.
func createSession(t *testing.T, nd *node, w loadgen.Workload) string {
	t.Helper()
	body, _ := json.Marshal(api.CreateRequest{Model: w.Model, Task: w.Task})
	resp, err := http.Post(nd.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("create on %s: HTTP %d: %s", nd.id, resp.StatusCode, raw)
	}
	var out api.CreateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !nd.c.Owns(out.ID) {
		t.Fatalf("minted id %s is not owned by creating node %s", out.ID, nd.id)
	}
	return out.ID
}

// postAnswer submits one label under the caller's idempotency key and
// returns the HTTP status plus whether the response was a replay.
func postAnswer(t *testing.T, base, id, key string, ans api.Answer) (int, bool, api.AnswerResult) {
	t.Helper()
	body, _ := json.Marshal(api.AnswersRequest{Answers: []api.Answer{ans}})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+id+"/answers", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.IdempotencyKeyHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST answers: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var res api.AnswerResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decoding answers response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(api.IdempotencyReplayedHeader) == "true", res
}

// nextQuestion fetches the next informative item, ok=false on convergence.
func nextQuestion(t *testing.T, base, id string) (api.Question, bool) {
	t.Helper()
	var out api.QuestionResponse
	resp := getJSON(t, http.DefaultClient, base+"/v1/sessions/"+id+"/question", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("question: HTTP %d", resp.StatusCode)
	}
	if out.Done || out.Question == nil {
		return api.Question{}, false
	}
	return *out.Question, true
}

func TestClusterRedirect(t *testing.T) {
	nodes := startCluster(t, 3)
	ws, err := loadgen.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	id := createSession(t, nodes[0], ws[0])

	// A /v1 request for n1's session at a non-owner answers 307 with the
	// owner's absolute URL and node id; the body carries the not_owner code.
	resp := getJSON(t, noRedirect, nodes[1].base+"/v1/sessions/"+id, nil)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner /v1 status: HTTP %d, want 307", resp.StatusCode)
	}
	wantLoc := nodes[0].base + "/v1/sessions/" + id
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("Location = %q, want %q", loc, wantLoc)
	}
	if got := resp.Header.Get(api.NodeHeader); got != "n1" {
		t.Fatalf("%s = %q, want owner n1", api.NodeHeader, got)
	}

	// A stdlib client follows the 307 transparently and lands on the owner.
	var st api.Status
	resp = getJSON(t, http.DefaultClient, nodes[1].base+"/v1/sessions/"+id, &st)
	if resp.StatusCode != http.StatusOK || st.ID != id {
		t.Fatalf("followed redirect: HTTP %d, status id %q", resp.StatusCode, st.ID)
	}

	// Owner-local requests pass through with this node's own stamp.
	resp = getJSON(t, noRedirect, nodes[0].base+"/v1/sessions/"+id, &st)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(api.NodeHeader) != "n1" {
		t.Fatalf("owner-local: HTTP %d node %q", resp.StatusCode, resp.Header.Get(api.NodeHeader))
	}

	if nodes[1].c.Stats().Redirects == 0 {
		t.Fatal("n2 counted no redirects")
	}
}

func TestClusterShipAndFailover(t *testing.T) {
	nodes := startCluster(t, 3)
	ws, err := loadgen.Builtin()
	if err != nil {
		t.Fatal(err)
	}

	// Run a few dialogues on n1, answering real questions under caller-owned
	// idempotency keys. Every 200 is an acknowledged, barrier-replicated
	// answer.
	type dialogue struct {
		id      string
		acked   int
		lastKey string
		lastAns api.Answer
	}
	var dials []*dialogue
	for i := 0; i < 3; i++ {
		w := ws[i%len(ws)]
		d := &dialogue{id: createSession(t, nodes[0], w)}
		for step := 0; step < 4; step++ {
			q, ok := nextQuestion(t, nodes[0].base, d.id)
			if !ok {
				break
			}
			pos, err := w.Oracle(q.Item)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s-k%d", d.id, step)
			ans := api.Answer{Item: q.Item, Positive: pos}
			code, replayed, _ := postAnswer(t, nodes[0].base, d.id, key, ans)
			if code != http.StatusOK {
				t.Fatalf("answer %d on %s: HTTP %d", step, d.id, code)
			}
			if replayed {
				t.Fatalf("fresh answer %d on %s marked replayed", step, d.id)
			}
			d.acked++
			d.lastKey, d.lastAns = key, ans
		}
		if d.acked == 0 {
			t.Fatalf("dialogue %s acked no answers", d.id)
		}
		dials = append(dials, d)
	}

	// Kill the owner without flushing anything and wait for the survivors to
	// fence it.
	nodes[0].kill()
	survivors := nodes[1:]
	deadline := time.Now().Add(10 * time.Second)
	for {
		fenced := 0
		for _, nd := range survivors {
			for _, p := range nd.c.Stats().Peers {
				if p.ID == "n1" && p.State == "fenced" {
					fenced++
				}
			}
		}
		if fenced == len(survivors) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never fenced n1: n2=%+v n3=%+v",
				survivors[0].c.Stats().Peers, survivors[1].c.Stats().Peers)
		}
		time.Sleep(10 * time.Millisecond)
	}

	adopted := int64(0)
	for _, nd := range survivors {
		s := nd.c.Stats()
		if s.AckTimeouts != 0 {
			t.Fatalf("node %s hit %d replication-ack timeouts", nd.id, s.AckTimeouts)
		}
		adopted += s.AdoptedSessions
	}
	if int(adopted) != len(dials) {
		t.Fatalf("survivors adopted %d sessions, want %d", adopted, len(dials))
	}

	for _, d := range dials {
		// Both survivors agree on the new owner; ask it directly.
		var nu *node
		for _, nd := range survivors {
			if nd.c.Owns(d.id) {
				nu = nd
				break
			}
		}
		if nu == nil {
			t.Fatalf("no survivor owns %s after failover", d.id)
		}
		var st api.Status
		resp := getJSON(t, noRedirect, nu.base+"/v1/sessions/"+d.id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s on adopter %s: HTTP %d", d.id, nu.id, resp.StatusCode)
		}
		// Zero lost acknowledged answers: every barrier-released 200 made it
		// into the adopter's state.
		if st.HITs != d.acked {
			t.Fatalf("session %s on %s: %d HITs, acked %d", d.id, nu.id, st.HITs, d.acked)
		}
		// Re-sending the last acked batch under its original key must replay,
		// not double-charge — the idempotency window survived the failover
		// because it ships inside the journal.
		code, replayed, _ := postAnswer(t, nu.base, d.id, d.lastKey, d.lastAns)
		if code != http.StatusOK {
			t.Fatalf("replayed answer on %s: HTTP %d", nu.id, code)
		}
		if !replayed {
			t.Fatalf("re-sent key %s on adopter %s not detected as replay", d.lastKey, nu.id)
		}
		resp = getJSON(t, noRedirect, nu.base+"/v1/sessions/"+d.id, &st)
		_ = resp
		if st.HITs != d.acked {
			t.Fatalf("session %s double-charged: %d HITs after replay, acked %d",
				d.id, st.HITs, d.acked)
		}
	}
}

// TestClusterMetricsExposition lints the Prometheus scrape of a live cluster
// node and checks the querylearn_cluster_* families are present and typed.
func TestClusterMetricsExposition(t *testing.T) {
	nodes := startCluster(t, 3)
	ws, err := loadgen.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	id := createSession(t, nodes[0], ws[0])
	// One redirect so the counter families have non-zero samples somewhere.
	getJSON(t, noRedirect, nodes[1].base+"/v1/sessions/"+id, nil)

	// Give the probers a beat so peer-state gauges reflect live peers.
	time.Sleep(150 * time.Millisecond)

	resp, err := http.Get(nodes[1].base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	for fam, typ := range map[string]string{
		"querylearn_cluster_peer_state":              "gauge",
		"querylearn_cluster_replication_lag_records": "gauge",
		"querylearn_cluster_replication_lag_bytes":   "gauge",
		"querylearn_cluster_shipped_records_total":   "counter",
		"querylearn_cluster_redirects_total":         "counter",
		"querylearn_cluster_ack_timeouts_total":      "counter",
	} {
		if got := exp.Types[fam]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, got, typ)
		}
	}
	if exp.SumByName("querylearn_cluster_redirects_total") == 0 {
		t.Error("redirects counter not incremented in scrape")
	}

	// /healthz carries the cluster block.
	var h struct {
		Cluster *cluster.Stats `json:"cluster"`
	}
	getJSON(t, http.DefaultClient, nodes[1].base+"/healthz", &h)
	if h.Cluster == nil || h.Cluster.NodeID != "n2" || len(h.Cluster.Peers) != 3 {
		t.Fatalf("healthz cluster block: %+v", h.Cluster)
	}
	for _, p := range h.Cluster.Peers {
		if p.ID != "n2" && p.State != "alive" {
			t.Errorf("peer %s state %q in healthz, want alive", p.ID, p.State)
		}
	}
}

// TestClusterShipEndpointContract exercises the ship endpoint's edges
// directly: wrong shard, malformed cursor restart, and the header contract.
func TestClusterShipEndpointContract(t *testing.T) {
	nodes := startCluster(t, 2)
	ws, err := loadgen.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	createSession(t, nodes[0], ws[0])

	// No secret: the endpoint refuses before looking at anything else.
	respNoSecret := getJSON(t, noRedirect, nodes[0].base+"/v1/cluster/ship?shard=n1&from_lsn=0:0", nil)
	if respNoSecret.StatusCode != http.StatusForbidden {
		t.Fatalf("missing secret: HTTP %d, want 403", respNoSecret.StatusCode)
	}

	// Wrong shard: this node only ships its own journal.
	resp := shipGet(t, nodes[0].base, "shard=n2&from_lsn=0:0")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("wrong shard: HTTP %d, want 404", resp.StatusCode)
	}

	// Garbage cursor restarts the caller at record 0 of the live generation
	// and the body decodes as framed records end to end.
	resp2 := shipGet(t, nodes[0].base, "shard=n1&from_lsn=junk")
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("garbage cursor: HTTP %d, want 200 restart", resp2.StatusCode)
	}
	if from := resp2.Header.Get("X-Querylearn-Ship-From"); from != "0" {
		t.Fatalf("restart From = %q, want 0", from)
	}
	if resp2.Header.Get("X-Querylearn-Ship-Epoch") == "" {
		t.Fatal("ship response carries no journal epoch")
	}
	body, _ := io.ReadAll(resp2.Body)
	n := int64(0)
	bufr := bufio.NewReader(bytes.NewReader(body))
	for {
		if _, err := store.ReadRecord(bufr); err != nil {
			if err != io.EOF {
				t.Fatalf("record %d: %v", n, err)
			}
			break
		}
		n++
	}
	wantEnd := resp2.Header.Get("X-Querylearn-Ship-End")
	if fmt.Sprint(n) != wantEnd {
		t.Fatalf("body holds %d records, End header says %s", n, wantEnd)
	}
	if n == 0 {
		t.Fatal("ship of a journal with a created session returned no records")
	}

	// POST is rejected.
	respPost, err := http.Post(nodes[0].base+"/v1/cluster/ship?shard=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	respPost.Body.Close()
	if respPost.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST ship: HTTP %d, want 405", respPost.StatusCode)
	}
}

// peerState reads how nd currently classifies peer id.
func peerState(nd *node, id string) string {
	for _, p := range nd.c.Stats().Peers {
		if p.ID == id {
			return p.State
		}
	}
	return "absent"
}

// TestClusterBootGraceToleratesSlowPeer is the rolling-start regression:
// fencing is a permanent latch, so a peer that has never answered a probe
// must be forgiven for BootGrace (250ms in this harness) — long past
// FailAfter consecutive failures — and must still join normally once its
// listener finally binds.
func TestClusterBootGraceToleratesSlowPeer(t *testing.T) {
	// Reserve an address for the late node, then close it so probes at that
	// address are refused, exactly like a daemon that has not bound yet.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := rsv.Addr().String()
	rsv.Close()

	lns := make([]net.Listener, 2)
	peers := make([]cluster.Peer, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()}
	}
	peers[2] = cluster.Peer{ID: "n3", Addr: lateAddr}
	var nodes []*node
	for i := range lns {
		nodes = append(nodes, startNode(t, peers[i], peers, lns[i]))
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if !nd.dead {
				nd.hs.Close()
				nd.c.Stop()
				nd.st.Close()
			}
		}
	})

	// Well past FailAfter (3 x 25ms) but inside the 250ms grace: the dark
	// peer must still be unknown, not fenced.
	time.Sleep(150 * time.Millisecond)
	for _, nd := range nodes {
		if got := peerState(nd, "n3"); got != "unknown" {
			t.Fatalf("%s classified never-seen n3 as %q inside the boot grace, want unknown", nd.id, got)
		}
	}

	// The late node finally binds its reserved address and joins.
	var lateLn net.Listener
	for attempt := 0; attempt < 20; attempt++ {
		lateLn, err = net.Listen("tcp", lateAddr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("reserved address %s was taken: %v", lateAddr, err)
	}
	nodes = append(nodes, startNode(t, peers[2], peers, lateLn))

	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := 0
		for _, nd := range nodes[:2] {
			if peerState(nd, "n3") == "alive" {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late n3 never became alive: n1 sees %q, n2 sees %q",
				peerState(nodes[0], "n3"), peerState(nodes[1], "n3"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterBootGraceExpiry: a peer that stays dark past the grace IS
// fenced — dead-at-boot detection still works, just slower than FailAfter.
func TestClusterBootGraceExpiry(t *testing.T) {
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	darkAddr := rsv.Addr().String()
	rsv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []cluster.Peer{
		{ID: "n1", Addr: ln.Addr().String()},
		{ID: "n2", Addr: darkAddr},
	}
	nd := startNode(t, peers[0], peers, ln)
	t.Cleanup(func() {
		nd.hs.Close()
		nd.c.Stop()
		nd.st.Close()
	})

	deadline := time.Now().Add(5 * time.Second)
	for peerState(nd, "n2") != "fenced" {
		if time.Now().After(deadline) {
			t.Fatalf("dark peer n2 still %q after the boot grace expired", peerState(nd, "n2"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
