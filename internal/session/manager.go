package session

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"querylearn/internal/obs"
	"querylearn/pkg/api"
)

// Wire types shared with pkg/api (see learner.go for the rationale).
type (
	// Answer is one label: the item a question encoded, and the verdict.
	Answer = api.Answer
	// Snapshot is the JSON-persistable state of a session mid-dialogue.
	Snapshot = api.Snapshot
	// Status is the session's lifecycle summary.
	Status = api.Status
	// AnswerResult reports what a batch of labels did to the session.
	AnswerResult = api.AnswerResult
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound reports an unknown or already-evicted session id.
	ErrNotFound = errors.New("session not found")
	// ErrTooManySessions reports the MaxSessions cap.
	ErrTooManySessions = errors.New("session limit reached")
	// ErrBudgetExhausted reports a batch that would exceed the session's
	// crowd budget.
	ErrBudgetExhausted = errors.New("session budget exhausted")
	// ErrFailed reports an operation on a session whose answers became
	// inconsistent; the version space is no longer trustworthy.
	ErrFailed = errors.New("session failed")
	// ErrExists reports a Resume under an id that is still live.
	ErrExists = errors.New("session id already exists")
	// ErrJournal reports a mutation aborted because its write-ahead journal
	// append failed — a server-side durability fault, not a client error.
	ErrJournal = errors.New("session journal unavailable")
)

// Config tunes a Manager.
type Config struct {
	// Shards is the number of lock shards (default 16).
	Shards int
	// MaxSessions caps live sessions across all shards (0 = unlimited).
	MaxSessions int
	// TTL evicts sessions idle longer than this (0 = never). Eviction
	// happens on SweepExpired, which the daemon calls periodically.
	TTL time.Duration
	// CostPerHIT prices one submitted label, the crowd-marketplace dollar
	// cost of §3 (0 = free).
	CostPerHIT float64
	// Limits bounds per-session resources (zero fields = defaults). Create
	// requests may tighten them per session but never exceed them.
	Limits Limits
	// Clock overrides time.Now for TTL tests.
	Clock func() time.Time
	// NewID overrides fresh-session id minting (default: "s" plus 24 hex
	// chars of crypto/rand). The cluster layer installs a generator that
	// only mints ids owned by the local node on the consistent-hash ring, so
	// a create request never has to redirect. Must return distinct values;
	// collisions with live ids are re-minted.
	NewID func() string
	// Journal observes every state mutation (write-ahead). Nil keeps the
	// manager purely in-memory.
	Journal Journal
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// Manager hosts live learning sessions: a sharded map with per-session
// locking, so many dialogues progress concurrently while each learner sees
// strictly serialized answers.
type Manager struct {
	cfg    Config
	shards []*shard
	live   atomic.Int64
	// intern canonicalizes answer-item bytes across sessions (see
	// intern.go): the few distinct question items a dialogue labels are
	// stored once instead of once per answer per session.
	intern *itemInterner

	// compactMu freezes the event stream during journal compaction: every
	// mutation holds it for read around its commit, Compact holds it for
	// write while it snapshots all sessions and rewrites the log, so the
	// snapshot set is consistent with the journal cut point. Lock order is
	// compactMu → shard.mu → Session.mu → journal internals.
	compactMu sync.RWMutex

	// Counters for /metrics. The event counters are bumped on the commit
	// path; labels on the Answer path (per submitted HIT) and questions on
	// the Propose path (per informative item served).
	created   atomic.Int64
	resumed   atomic.Int64
	recovered atomic.Int64
	deleted   atomic.Int64
	expired   atomic.Int64
	labels    atomic.Int64
	questions atomic.Int64
	// heals counts journal probe recoveries (see StartJournalProbe).
	heals atomic.Int64
}

// commit is the single mutation event path: every state change in the
// Manager — create, resume, answers, delete, evict — is expressed as an
// Event and routed here, write-ahead. With a journal configured the event
// must append before the mutation proceeds; an append failure aborts it.
// Boot-time recovery registers with journal=false because the journal
// already contains the state being registered. tr (nil-safe) attributes the
// append to the request's journal.append phase; a TracedJournal additionally
// breaks out its own internal phases (fsync wait) on the same trace.
func (m *Manager) commit(tr *obs.Trace, ev Event, journal bool) error {
	if journal && m.cfg.Journal != nil {
		done := tr.StartPhase("journal.append")
		var err error
		if tj, ok := m.cfg.Journal.(TracedJournal); ok && tr != nil {
			err = tj.AppendTraced(ev, tr)
		} else {
			err = m.cfg.Journal.Append(ev)
		}
		done()
		if err != nil {
			return fmt.Errorf("%w (%s event): %v", ErrJournal, ev.Kind, err)
		}
	}
	switch ev.Kind {
	case EventCreate:
		m.created.Add(1)
	case EventResume:
		if journal {
			m.resumed.Add(1)
		} else {
			m.recovered.Add(1)
		}
	case EventDelete:
		m.deleted.Add(1)
	case EventEvict:
		m.expired.Add(1)
	}
	return nil
}

type shard struct {
	mu sync.Mutex
	m  map[string]*Session
}

// NewManager builds a Manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{cfg: cfg, shards: make([]*shard, cfg.Shards), intern: newItemInterner()}
	for i := range m.shards {
		m.shards[i] = &shard{m: map[string]*Session{}}
	}
	return m
}

// attachCache hands a freshly built learner the manager-wide decode memo,
// so equal items across sessions decode once (see intern.go). Learners
// built standalone via NewLimited run uncached.
func (m *Manager) attachCache(l Learner) {
	if c, ok := l.(interface{ setDecodeCache(*itemInterner) }); ok {
		c.setDecodeCache(m.intern)
	}
}

func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: crypto/rand failed: %v", err))
	}
	return "s" + hex.EncodeToString(b[:])
}

// mintID mints a fresh session id, honoring Config.NewID.
func (m *Manager) mintID() string {
	if m.cfg.NewID != nil {
		return m.cfg.NewID()
	}
	return newID()
}

// Session is one live dialogue: a learner plus the bookkeeping that makes it
// servable — the answer log (for snapshots), crowd-cost accounting, and idle
// tracking for TTL eviction. All methods are safe for concurrent use.
type Session struct {
	mu sync.Mutex

	id    string
	model string
	task  string
	// learner is nil while the session is cold: Recover and Adopt register
	// the journaled state without building, and the first operation that
	// needs the learner builds it (ensureLearner).
	learner Learner
	// limits records the EFFECTIVE session limits (path model only) for
	// snapshots and journal events, so a resume — even on a daemon with
	// different flag defaults — rebuilds the identical pool and version
	// space.
	limits  *api.PathLimits
	answers []Answer
	// answerKeys is the bounded window of recent answers Idempotency-Keys
	// (newest last); journaled with each batch and carried in snapshots, so
	// a keyed retry that lands after a crash or failover is recognized as a
	// replay instead of double-charging the batch.
	answerKeys []string
	hits       int
	maxCost    float64
	createdAt  time.Time
	failed     error
	// evicted is set under mu when the session leaves the manager (TTL
	// sweep or DELETE), so an operation racing the eviction fails instead
	// of silently applying labels to an unreachable session.
	evicted bool

	mgr          *Manager
	costPerHIT   float64
	clock        func() time.Time
	lastActiveNS atomic.Int64
}

// CreateOptions are per-session knobs.
type CreateOptions struct {
	// MaxCost caps the crowd spend of this session in dollars (0 = no cap).
	MaxCost float64
	// Limits optionally tightens the manager's session limits for this
	// session (path model). Values above the manager's own limits are
	// rejected. The limits are persisted with the session's snapshot.
	Limits *api.PathLimits
}

// Limits reports the manager's effective (defaulted) session limits — what a
// create request may tighten but not exceed.
func (m *Manager) Limits() Limits { return m.cfg.Limits }

// Create parses the task, builds the model's learner, and registers a fresh
// session. The create event is journaled after the session id is final but
// before Create returns, so no acknowledged session can be lost to a crash.
func (m *Manager) Create(model, task string, opts CreateOptions) (*Session, error) {
	return m.CreateTraced(model, task, opts, nil)
}

// CreateTraced is Create with per-phase attribution onto tr (nil-safe).
func (m *Manager) CreateTraced(model, task string, opts CreateOptions, tr *obs.Trace) (*Session, error) {
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	lim, err := m.cfg.Limits.Merge(opts.Limits, true)
	if err != nil {
		return nil, err
	}
	if err := m.reserve(); err != nil {
		return nil, err
	}
	learner, err := m.build(model, task, lim, nil, tr)
	if err != nil {
		m.live.Add(-1)
		return nil, err
	}
	drainPlan(learner, tr)
	s := m.newSession(m.mintID(), model, task, learner, opts.MaxCost)
	if model == "path" {
		// Stamp the EFFECTIVE limits, not the request's: a snapshot must
		// rebuild the identical pool even on a daemon with different flag
		// defaults.
		s.limits = lim.wire()
	}
	m.insert(s)
	ev := Event{
		Kind: EventCreate, ID: s.id, Model: model, Task: task,
		MaxCost: opts.MaxCost, Limits: s.limits, CreatedAt: s.createdAt,
	}
	if err := m.commit(tr, ev, true); err != nil {
		s.mu.Lock()
		m.finishRemoval(s)
		return nil, err
	}
	return s, nil
}

// build is the one way a session's learner comes to exist: parse the task
// under its effective limits, attach the manager-wide decode memo and replay
// the answer log, all inside tr's learner.build phase. Create builds with no
// answers and a client Resume builds eagerly; a session that Recover or
// Adopt registered cold builds on its first touch (Session.ensureLearner).
func (m *Manager) build(model, task string, lim Limits, answers []Answer, tr *obs.Trace) (Learner, error) {
	defer tr.StartPhase("learner.build")()
	l, err := NewLimited(model, task, lim)
	if err != nil {
		return nil, err
	}
	m.attachCache(l)
	for i, a := range answers {
		if err := l.Record(a.Item, a.Positive); err != nil {
			return nil, fmt.Errorf("session: replaying snapshot answer %d: %w", i, err)
		}
	}
	return l, nil
}

// finishRemoval is the one removal sequence every eviction path (Delete,
// TTL sweep, create/resume rollback) funnels through. The caller holds s.mu
// with s.evicted still false and has already journaled (or deliberately not
// journaled) the removal; finishRemoval marks the session evicted, releases
// s.mu, unlinks it from its shard if the same pointer is still registered,
// and frees its live slot. Marking evicted under the caller's lock before
// touching the shard makes removal exactly-once against racing paths, and
// releasing s.mu before taking shard.mu keeps the lock order acyclic.
func (m *Manager) finishRemoval(s *Session) {
	s.evicted = true
	s.mu.Unlock()
	sh := m.shardFor(s.id)
	sh.mu.Lock()
	if sh.m[s.id] == s {
		delete(sh.m, s.id)
	}
	sh.mu.Unlock()
	m.live.Add(-1)
}

func (m *Manager) reserve() error {
	if m.cfg.MaxSessions > 0 && m.live.Add(1) > int64(m.cfg.MaxSessions) {
		m.live.Add(-1)
		return ErrTooManySessions
	}
	if m.cfg.MaxSessions <= 0 {
		m.live.Add(1)
	}
	return nil
}

func (m *Manager) newSession(id, model, task string, learner Learner, maxCost float64) *Session {
	now := m.cfg.Clock()
	s := &Session{
		id: id, model: model, task: task, learner: learner,
		maxCost: maxCost, createdAt: now,
		mgr: m, costPerHIT: m.cfg.CostPerHIT, clock: m.cfg.Clock,
	}
	s.lastActiveNS.Store(now.UnixNano())
	return s
}

func (m *Manager) insert(s *Session) {
	for {
		sh := m.shardFor(s.id)
		sh.mu.Lock()
		if _, taken := sh.m[s.id]; !taken {
			sh.m[s.id] = s
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()
		s.id = m.mintID() // astronomically unlikely collision
	}
}

// Get looks a live session up.
func (m *Manager) Get(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s := sh.m[id]
	sh.mu.Unlock()
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete evicts a session. It returns ErrNotFound for an unknown id, or the
// journal error if the delete event could not be made durable (in which case
// the session stays live).
func (m *Manager) Delete(id string) error { return m.DeleteTraced(id, nil) }

// DeleteTraced is Delete with per-phase attribution onto tr (nil-safe).
func (m *Manager) DeleteTraced(id string, tr *obs.Trace) error {
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	sh.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	// Journal under the session lock only: a synchronous fsync (always
	// mode) stalls this one session, not every session in the shard. The
	// evicted flag makes removal exactly-once against a racing sweep.
	lockDone := tr.StartPhase("session.lock")
	s.mu.Lock()
	lockDone()
	if s.evicted {
		s.mu.Unlock()
		return ErrNotFound
	}
	if err := m.commit(tr, Event{Kind: EventDelete, ID: id}, true); err != nil {
		s.mu.Unlock()
		return err
	}
	m.finishRemoval(s)
	return nil
}

// Len counts live sessions.
func (m *Manager) Len() int { return int(m.live.Load()) }

// SweepExpired evicts every session idle longer than the TTL and returns how
// many it removed. A no-op when the TTL is zero.
func (m *Manager) SweepExpired() int {
	if m.cfg.TTL <= 0 {
		return 0
	}
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	deadline := m.cfg.Clock().Add(-m.cfg.TTL).UnixNano()
	removed := 0
	for _, sh := range m.shards {
		// Collect candidates under the shard lock, then evict each under
		// its own session lock only, so the journal fsync of one eviction
		// never stalls the whole shard.
		sh.mu.Lock()
		var victims []*Session
		for _, s := range sh.m {
			if s.lastActiveNS.Load() < deadline {
				victims = append(victims, s)
			}
		}
		sh.mu.Unlock()
		for _, s := range victims {
			// Re-check under the session lock: an in-flight operation
			// that already holds (or is acquiring) s.mu touches
			// lastActive, and a racing Delete sets evicted. Marking
			// evicted here makes any later operation on a stale pointer
			// fail instead of applying labels to an unreachable session.
			s.mu.Lock()
			if s.evicted || s.lastActiveNS.Load() >= deadline {
				s.mu.Unlock()
				continue
			}
			// A session that cannot journal its eviction stays live and
			// is retried on the next sweep.
			if err := m.commit(nil, Event{Kind: EventEvict, ID: s.id}, true); err != nil {
				s.mu.Unlock()
				continue
			}
			m.finishRemoval(s)
			removed++
		}
	}
	return removed
}

// Stats is the manager-level counter snapshot for /metrics.
type Stats struct {
	Live      int   `json:"live"`
	Created   int64 `json:"created"`
	Resumed   int64 `json:"resumed"`
	Recovered int64 `json:"recovered"`
	Deleted   int64 `json:"deleted"`
	Expired   int64 `json:"expired"`
	Labels    int64 `json:"labels"`
	Questions int64 `json:"questions"`
	// JournalHeals counts degraded-journal recoveries by the probe.
	JournalHeals int64 `json:"journal_heals,omitempty"`
	// InternItems/InternBytes describe the shared answer-item vocabulary
	// (see intern.go): distinct items retained once across all sessions.
	InternItems int   `json:"intern_items"`
	InternBytes int64 `json:"intern_bytes"`
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	items, bytes := m.intern.stats()
	return Stats{
		Live:         m.Len(),
		Created:      m.created.Load(),
		Resumed:      m.resumed.Load(),
		Recovered:    m.recovered.Load(),
		Deleted:      m.deleted.Load(),
		Expired:      m.expired.Load(),
		Labels:       m.labels.Load(),
		Questions:    m.questions.Load(),
		JournalHeals: m.heals.Load(),
		InternItems:  items,
		InternBytes:  bytes,
	}
}

// List pages through the live sessions in ascending id order: up to limit
// statuses with ids strictly greater than after (the page token; "" starts
// from the beginning). The second result is the token of the next page, or
// "" when this page reaches the end. The listing is a point-in-time sample —
// sessions created or evicted mid-scan may or may not appear — which is the
// honest contract for a paginated view of a live, sharded map.
func (m *Manager) List(limit int, after string) ([]Status, string) {
	if limit < 1 {
		limit = 1
	}
	// Bounded selection: keep only the limit+1 smallest qualifying ids in a
	// sorted slice, so one page over N live sessions costs O(N·limit) in
	// the worst case instead of sorting all N — a full pagination sweep
	// stays linear-ish in N rather than quadratic.
	live := make([]*Session, 0, limit+1)
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, s := range sh.m {
			if id <= after {
				continue
			}
			if len(live) == limit+1 && id >= live[len(live)-1].id {
				continue
			}
			at := sort.Search(len(live), func(i int) bool { return live[i].id > id })
			live = append(live, nil)
			copy(live[at+1:], live[at:])
			live[at] = s
			if len(live) > limit+1 {
				live = live[:limit+1]
			}
		}
		sh.mu.Unlock()
	}
	next := ""
	if len(live) > limit {
		live = live[:limit]
		next = live[limit-1].id
	}
	statuses := make([]Status, len(live))
	for i, s := range live {
		statuses[i] = s.Status()
	}
	return statuses, next
}

// Resume rehydrates a snapshotted session under its original id.
func (m *Manager) Resume(snap Snapshot) (*Session, error) {
	return m.ResumeTraced(snap, nil)
}

// ResumeTraced is Resume with per-phase attribution onto tr (nil-safe).
func (m *Manager) ResumeTraced(snap Snapshot, tr *obs.Trace) (*Session, error) {
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	return m.resume(snap, true, true, tr)
}

// Recover registers recovered snapshots as live sessions through the same
// resume machinery clients use, but cold: each keeps its journaled answer
// log and builds its learner on first touch, so boot work is paid only for
// the sessions that are used again. Journaling is disabled because the
// journal already contains the state being registered, and the
// untrusted-snapshot cost check is relaxed to its structural part (crowd
// cost is rederived from the HITs at the current rate, so a -cost-per-hit
// change cannot destroy sessions). A session whose answers no longer replay
// is still registered; its first touch marks it failed (ErrFailed).
// Structurally invalid snapshots (a live id, fewer HITs than answers) are
// skipped; Recover reports how many it registered and joins the
// per-session errors.
func (m *Manager) Recover(snaps []Snapshot) (int, error) {
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	n := 0
	var errs []error
	for _, snap := range snaps {
		if _, err := m.resume(snap, false, false, nil); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", snap.ID, err))
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// Adopt registers sessions taken over from a failed cluster peer: snapshots
// reconstructed from the peer's shipped journal by the replication follower.
// Unlike Recover, adoption IS journaled — the adopting node's own journal
// must contain every adopted session, or a restart would lose them — but
// like Recover the snapshots are trusted (they come from a peer's journal,
// not a client), so the untrusted cost/limit checks are relaxed and a
// -cost-per-hit or limits mismatch between peers cannot destroy sessions.
// Like Recover, adopted sessions are registered cold and build on first
// touch.
func (m *Manager) Adopt(snaps []Snapshot) (int, error) {
	m.compactMu.RLock()
	defer m.compactMu.RUnlock()
	n := 0
	var errs []error
	for _, snap := range snaps {
		if _, err := m.resume(snap, true, false, nil); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", snap.ID, err))
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// validateSnapshot cross-checks a snapshot's stated crowd accounting against
// what its answer log can justify, so a forged or corrupted snapshot cannot
// smuggle budget into a resumed session. The structural check (every applied
// answer costs at least one HIT) holds for any snapshot; the rate check
// (stated cost must equal the recomputed HITs × CostPerHIT) applies only to
// untrusted client snapshots — boot recovery of the daemon's own journal
// must survive a -cost-per-hit change, where the live cost is simply
// rederived from the replayed HITs at the current rate.
func (m *Manager) validateSnapshot(snap Snapshot, untrusted bool) error {
	if snap.HITs < 0 {
		return fmt.Errorf("session: snapshot states negative HITs (%d)", snap.HITs)
	}
	if snap.HITs < len(snap.Answers) {
		return fmt.Errorf("session: snapshot states %d HITs for %d applied answers",
			snap.HITs, len(snap.Answers))
	}
	if !untrusted {
		return nil
	}
	// An untrusted snapshot must not smuggle resource limits past the
	// manager's caps any more than a create request could; merge errors on
	// excess. Boot recovery skips this so lowering a daemon flag cannot
	// destroy journaled sessions.
	if _, err := m.cfg.Limits.Merge(snap.Limits, true); err != nil {
		return err
	}
	recomputed := float64(snap.HITs) * m.cfg.CostPerHIT
	if diff := snap.Cost - recomputed; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("session: snapshot states cost $%v but %d HITs at $%v/HIT recompute to $%v",
			snap.Cost, snap.HITs, m.cfg.CostPerHIT, recomputed)
	}
	return nil
}

// resume is the shared rehydration path under compactMu. journalIt
// distinguishes paths that must write a resume event (client resume, peer
// adoption) from boot-time recovery (already journaled); untrusted
// distinguishes client-supplied snapshots (full cost/limit validation) from
// the daemon's or a peer's own journal (structural checks only). The
// combinations in use: client resume (true, true), boot recovery (false,
// false), failover adoption (true, false). An untrusted snapshot is built
// and replayed here, so one that does not replay is rejected at resume time;
// a trusted one is registered cold (see ensureLearner).
func (m *Manager) resume(snap Snapshot, journalIt, untrusted bool, tr *obs.Trace) (*Session, error) {
	if snap.ID == "" {
		return nil, fmt.Errorf("session: snapshot has no id")
	}
	if err := m.validateSnapshot(snap, untrusted); err != nil {
		return nil, err
	}
	sh := m.shardFor(snap.ID)
	sh.mu.Lock()
	_, taken := sh.m[snap.ID]
	sh.mu.Unlock()
	if taken {
		return nil, ErrExists
	}
	if err := m.reserve(); err != nil {
		return nil, err
	}
	// Rebuild under the snapshot's own limits so the question pool — hence
	// the version space — matches the session that was snapshotted. A client
	// resume already passed the validateSnapshot cap check; recovery honors
	// journaled limits even past a lowered daemon cap.
	lim, err := m.cfg.Limits.Merge(snap.Limits, false)
	if err != nil {
		m.live.Add(-1)
		return nil, err
	}
	// Resumed answer logs (client snapshots, boot recovery) fold into the
	// same shared vocabulary as live batches.
	m.intern.internAnswers(snap.Answers)
	var learner Learner
	if untrusted {
		if learner, err = m.build(snap.Model, snap.Task, lim, snap.Answers, tr); err != nil {
			m.live.Add(-1)
			return nil, err
		}
	}
	s := m.newSession(snap.ID, snap.Model, snap.Task, learner, snap.MaxCost)
	if snap.Model == "path" {
		// Stamp the effective limits the learner is built with, exactly
		// like Create: a legacy limits-free snapshot is thereby pinned to
		// this daemon's current defaults from now on, instead of silently
		// reshaping on every future flag change. A cold session's first
		// touch rebuilds under these.
		s.limits = lim.wire()
	}
	s.answers = append(s.answers, snap.Answers...)
	if n := len(snap.AnswerKeys); n > 0 {
		if n > maxAnswerKeys {
			snap.AnswerKeys = snap.AnswerKeys[n-maxAnswerKeys:]
		}
		s.answerKeys = append([]string(nil), snap.AnswerKeys...)
	}
	s.hits = snap.HITs
	s.createdAt = snap.CreatedAt

	// Unlike Create, the caller already knows this id, so an answer can
	// race the resume the moment the session is visible. Insert it with
	// its own lock held: racing operations block on s.mu until the resume
	// event is journaled, so no acknowledged answer can precede (or be
	// orphaned from) the resume event in the log.
	s.mu.Lock()
	sh.mu.Lock()
	if _, taken := sh.m[snap.ID]; taken {
		sh.mu.Unlock()
		s.mu.Unlock()
		m.live.Add(-1)
		return nil, ErrExists
	}
	sh.m[snap.ID] = s
	sh.mu.Unlock()
	ev := Event{Kind: EventResume, ID: snap.ID, Snapshot: &snap}
	if err := m.commit(tr, ev, journalIt); err != nil {
		m.finishRemoval(s)
		return nil, err
	}
	s.mu.Unlock()
	return s, nil
}

// Compact freezes the event stream, snapshots every live session, and asks
// the journal to rewrite itself as those snapshots — dropping the event tail
// they subsume. It returns the number of sessions written. A nil journal, or
// one that cannot compact, is a no-op.
func (m *Manager) Compact() (int, error) {
	comp, ok := m.cfg.Journal.(Compactor)
	if !ok {
		return 0, nil
	}
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	live := make([]*Session, 0, m.live.Load())
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, s := range sh.m {
			live = append(live, s)
		}
		sh.mu.Unlock()
	}
	// Deterministic journal order: oldest session first. Sort the sessions,
	// so a swap moves a pointer, not a Snapshot, then snapshot each once;
	// compactMu held for write stops every mutation, so no session changes
	// or leaves in between.
	slices.SortFunc(live, func(a, b *Session) int {
		if c := a.createdAt.Compare(b.createdAt); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	snaps := make([]Snapshot, len(live))
	for i, s := range live {
		snaps[i] = s.Snapshot()
	}
	return len(snaps), comp.Compact(snaps)
}

// ---- per-session operations ----

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Model returns the session's model name.
func (s *Session) Model() string { return s.model }

func (s *Session) touch() { s.lastActiveNS.Store(s.clock().UnixNano()) }

// checkLive is called under s.mu before mutating operations.
func (s *Session) checkLive() error {
	if s.evicted {
		return ErrNotFound
	}
	if s.failed != nil {
		return fmt.Errorf("%w: %v", ErrFailed, s.failed)
	}
	return nil
}

// ensureLearner builds a cold session's learner on its first touch, under
// s.mu and inside tr's learner.build phase; later calls return at once. A
// session whose task no longer parses or whose answers no longer replay is
// marked failed, so every later operation reports ErrFailed and Status
// shows why.
func (s *Session) ensureLearner(tr *obs.Trace) error {
	if s.learner == nil && s.failed == nil {
		// s.limits holds the effective path limits stamped at registration
		// (nil for the other models, which take no limits), so the merge
		// reproduces the limits the session was journaled under.
		lim, err := s.mgr.cfg.Limits.Merge(s.limits, false)
		if err == nil {
			s.learner, err = s.mgr.build(s.model, s.task, lim, s.answers, tr)
		}
		s.failed = err
	}
	if s.learner == nil {
		return fmt.Errorf("%w: %v", ErrFailed, s.failed)
	}
	return nil
}

// Question proposes the next question. ok=false means converged.
func (s *Session) Question() (Question, bool, error) {
	qs, err := s.Questions(1)
	if err != nil || len(qs) == 0 {
		return Question{}, false, err
	}
	return qs[0], true, nil
}

// Questions proposes up to k pairwise-distinct informative items for
// parallel crowd dispatch — the paper's many-workers scenario, where k HITs
// go out at once and the answers come back as one batch. An empty result
// means converged.
func (s *Session) Questions(k int) ([]Question, error) { return s.QuestionsTraced(k, nil) }

// QuestionsTraced is Questions with per-phase attribution onto tr
// (nil-safe): session.lock is the wait for this session's serializing lock,
// learner.propose the informative-item search itself.
func (s *Session) QuestionsTraced(k int, tr *obs.Trace) ([]Question, error) {
	lockDone := tr.StartPhase("session.lock")
	s.mu.Lock()
	lockDone()
	defer s.mu.Unlock()
	s.touch()
	if err := s.checkLive(); err != nil {
		return nil, err
	}
	if err := s.ensureLearner(tr); err != nil {
		return nil, err
	}
	proposeDone := tr.StartPhase("learner.propose")
	qs, err := s.learner.Propose(k)
	proposeDone()
	drainPlan(s.learner, tr)
	if err != nil {
		return nil, err
	}
	s.mgr.questions.Add(int64(len(qs)))
	return qs, nil
}

// Reconcile modes for batched answers, re-exported from the wire protocol.
const (
	// ReconcileNone applies every label in order.
	ReconcileNone = api.ReconcileNone
	// ReconcileMajority groups labels by item and applies each item's
	// majority verdict once — the crowd defence against worker error.
	// Ties are rejected.
	ReconcileMajority = api.ReconcileMajority
)

// Answer ingests a batch of labels. Every submitted label is one paid HIT
// for cost accounting; with majority reconciliation, repeated labels of one
// item are votes. Budget and consistency are checked before anything is
// applied; a Record error mid-batch marks the session failed.
func (s *Session) Answer(batch []Answer, reconcile string) (AnswerResult, error) {
	return s.AnswerTraced(batch, reconcile, nil)
}

// AnswerTraced is Answer with per-phase attribution onto tr (nil-safe):
// session.lock (compaction gate + session serialization), learner.validate,
// journal.append (inside commit), learner.record, and the trailing
// learner.propose that computes Remaining.
func (s *Session) AnswerTraced(batch []Answer, reconcile string, tr *obs.Trace) (AnswerResult, error) {
	res, _, err := s.AnswerIdemTraced(batch, reconcile, "", tr)
	return res, err
}

// AnswerIdemTraced is AnswerTraced with a durable idempotency key. A
// non-empty key is journaled with the batch's event and kept in the
// session's bounded key window; a batch arriving under a key already in the
// window — a client retry whose original landed, possibly on a node that has
// since died and been failed over — is not re-applied or re-charged, and
// returns the session's current totals with replayed=true. This is the
// session-layer backstop beneath the server's byte-replay cache: the cache
// dies with its process, the window travels with the session's journal.
func (s *Session) AnswerIdemTraced(batch []Answer, reconcile, key string, tr *obs.Trace) (AnswerResult, bool, error) {
	if len(batch) == 0 {
		return AnswerResult{}, false, fmt.Errorf("session: empty answer batch")
	}
	// Answer mutates state, so it participates in the event stream: take the
	// compaction read-lock before the session lock (the manager-wide lock
	// order), then journal write-ahead below.
	lockDone := tr.StartPhase("session.lock")
	s.mgr.compactMu.RLock()
	defer s.mgr.compactMu.RUnlock()
	s.mu.Lock()
	lockDone()
	defer s.mu.Unlock()
	s.touch()
	if err := s.checkLive(); err != nil {
		return AnswerResult{}, false, err
	}
	if err := s.ensureLearner(tr); err != nil {
		return AnswerResult{}, false, err
	}
	if key != "" {
		for _, k := range s.answerKeys {
			if k == key {
				// The original attempt under this key already applied and
				// charged the batch (here, or on the node this session was
				// failed over from). Report the current totals without
				// re-executing; Applied is zero because THIS request
				// applied nothing.
				res := AnswerResult{HITs: s.hits, Cost: float64(s.hits) * s.costPerHIT}
				qs, err := s.learner.Propose(1)
				if err != nil {
					return AnswerResult{}, true, err
				}
				if len(qs) > 0 {
					res.Remaining = qs[0].Remaining
				} else {
					res.Done = true
				}
				return res, true, nil
			}
		}
	}

	var apply []Answer
	switch reconcile {
	case ReconcileNone:
		apply = batch
	case ReconcileMajority:
		var err error
		if apply, err = majority(batch); err != nil {
			return AnswerResult{}, false, err
		}
	default:
		return AnswerResult{}, false, fmt.Errorf("session: unknown reconcile mode %q (want %q or %q)",
			reconcile, ReconcileNone, ReconcileMajority)
	}

	// Validate the whole batch before charging or applying anything: a
	// malformed item (bad JSON, out-of-range index, unknown node) rejects
	// the batch cleanly and leaves the session healthy. Only answers that
	// survive validation can fail Record, and such a failure is genuine
	// inconsistency — the poison-pill below.
	validateDone := tr.StartPhase("learner.validate")
	for _, a := range apply {
		if err := s.learner.Validate(a.Item); err != nil {
			validateDone()
			return AnswerResult{}, false, err
		}
	}
	validateDone()

	cost := float64(s.hits+len(batch)) * s.costPerHIT
	if s.maxCost > 0 && cost > s.maxCost {
		return AnswerResult{}, false, fmt.Errorf("%w: batch of %d labels would cost $%.2f of a $%.2f budget",
			ErrBudgetExhausted, len(batch), cost, s.maxCost)
	}
	// Canonicalize the surviving items before they are journaled or retained
	// in s.answers: the session then shares the manager-wide vocabulary
	// bytes instead of pinning this request's body buffer.
	s.mgr.intern.internAnswers(apply)
	// Write-ahead: the batch must be durable before it is applied or
	// charged. A journal failure rejects the batch with the session intact.
	preHITs, preAnswers := s.hits, len(s.answers)
	ev := Event{
		Kind: EventAnswers, ID: s.id, Answers: apply,
		HITs: s.hits + len(batch), Cost: cost, Key: key,
	}
	if err := s.mgr.commit(tr, ev, true); err != nil {
		return AnswerResult{}, false, err
	}
	s.hits += len(batch)
	if key != "" {
		s.answerKeys = pushAnswerKey(s.answerKeys, key)
	}

	recordDone := tr.StartPhase("learner.record")
	for _, a := range apply {
		if err := s.learner.Record(a.Item, a.Positive); err != nil {
			recordDone()
			// Genuine inconsistency: no hypothesis fits the answers. The
			// batch's event is already durable, so left alone it would
			// poison every future boot (replaying it fails the same way,
			// failing the whole session at its first touch) — and a
			// half-applied answer log must not be what Snapshot() or a
			// compaction captures. Roll
			// the accounting back to the pre-batch state and journal a
			// compensating snapshot record that restores it, so recovery
			// resurrects the session at its last consistent state while
			// the live one stays marked failed.
			s.failed = err
			s.hits, s.answers = preHITs, s.answers[:preAnswers]
			comp := s.snapshotLocked()
			if cerr := s.mgr.commit(tr, Event{Kind: EventSnapshot, ID: s.id, Snapshot: &comp}, true); cerr != nil {
				// Disk and version space both broken: the failed mark
				// already stops further use; a recovered copy fails
				// again at its first touch.
				err = errors.Join(err, cerr)
			}
			return AnswerResult{}, false, fmt.Errorf("%w: %v", ErrFailed, err)
		}
		s.answers = append(s.answers, a)
	}
	recordDone()
	// Label accounting lives on the session path (not the HTTP layer), so
	// every ingestion surface — server, SDK-driven experiments, direct
	// manager use — counts identically.
	s.mgr.labels.Add(int64(len(batch)))
	res := AnswerResult{
		Applied: len(apply),
		HITs:    s.hits,
		Cost:    float64(s.hits) * s.costPerHIT,
	}
	proposeDone := tr.StartPhase("learner.propose")
	qs, err := s.learner.Propose(1)
	proposeDone()
	drainPlan(s.learner, tr)
	if err != nil {
		return AnswerResult{}, false, err
	}
	if len(qs) > 0 {
		res.Remaining = qs[0].Remaining
	} else {
		res.Done = true
	}
	return res, false, nil
}

// majority reduces a batch to one verdict per distinct item, preserving
// first-occurrence order.
func majority(batch []Answer) ([]Answer, error) {
	type tally struct {
		item    json.RawMessage
		yes, no int
	}
	var order []string
	votes := map[string]*tally{}
	for _, a := range batch {
		key, err := ItemKey(a.Item)
		if err != nil {
			return nil, err
		}
		t := votes[key]
		if t == nil {
			t = &tally{item: a.Item}
			votes[key] = t
			order = append(order, key)
		}
		if a.Positive {
			t.yes++
		} else {
			t.no++
		}
	}
	out := make([]Answer, 0, len(order))
	for _, key := range order {
		t := votes[key]
		if t.yes == t.no {
			return nil, fmt.Errorf("session: majority tie (%d-%d) for item %s", t.yes, t.no, compact(t.item))
		}
		out = append(out, Answer{Item: t.item, Positive: t.yes > t.no})
	}
	return out, nil
}

// Hypothesis snapshots the current best hypothesis.
func (s *Session) Hypothesis() (Hypothesis, error) { return s.HypothesisTraced(nil) }

// HypothesisTraced is Hypothesis with per-phase attribution onto tr
// (nil-safe).
func (s *Session) HypothesisTraced(tr *obs.Trace) (Hypothesis, error) {
	lockDone := tr.StartPhase("session.lock")
	s.mu.Lock()
	lockDone()
	defer s.mu.Unlock()
	s.touch()
	if s.evicted {
		return Hypothesis{}, ErrNotFound
	}
	if err := s.ensureLearner(tr); err != nil {
		return Hypothesis{}, err
	}
	h, err := s.learner.Hypothesis()
	drainPlan(s.learner, tr)
	return h, err
}

// Snapshot captures the session for persistence.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked builds the snapshot under an already-held s.mu (Answer's
// compensating record needs it mid-operation).
func (s *Session) snapshotLocked() Snapshot {
	answers := make([]Answer, len(s.answers))
	copy(answers, s.answers)
	snap := Snapshot{
		ID: s.id, Model: s.model, Task: s.task,
		Answers: answers, HITs: s.hits,
		Cost: float64(s.hits) * s.costPerHIT, MaxCost: s.maxCost,
		CreatedAt: s.createdAt, Limits: s.limits,
	}
	if len(s.answerKeys) > 0 {
		snap.AnswerKeys = append([]string(nil), s.answerKeys...)
	}
	return snap
}

// Status summarizes the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID: s.id, Model: s.model,
		Answers: len(s.answers), HITs: s.hits,
		Cost: float64(s.hits) * s.costPerHIT, MaxCost: s.maxCost,
		CreatedAt: s.createdAt,
	}
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	return st
}
