// Package store is the durable session store behind querylearnd: an
// append-only write-ahead journal of session events (create, resume,
// answers-applied, delete, evict) with length-prefixed CRC-checked binary
// records (internal/codec), group-commit fsync, and compaction that rewrites
// the log as one snapshot record per live session plus a tail of newer
// events.
//
// The layering mirrors janus-datalog's "streaming engine over a simple
// durable log" shape rather than bolting a database on: internal/session's
// Manager emits every state mutation as a session.Event through its single
// commit path; the Store appends those events write-ahead; boot-time
// recovery folds the journal back into session.Snapshots (via
// session.ApplyEvent, the one replay rule) that Manager.Recover replays into
// live sessions through the ordinary Resume machinery.
//
// Durability modes trade throughput for the crash window:
//
//	off      every record reaches the OS (surviving a SIGKILL) but fsync is
//	         left to the kernel — power loss can drop the tail.
//	batched  a background group commit fsyncs the accumulated tail every
//	         BatchWindow; appenders do not block, and /metrics reports the
//	         journal lag (events appended but not yet known durable).
//	always   every append blocks until an fsync covers it; concurrent
//	         appenders share one fsync (group commit).
//
// A crash can truncate the final record mid-write; recovery detects the torn
// tail by its length/CRC framing, keeps everything before it, and rewrites
// the journal compacted — so a restart always begins from a clean,
// normalized log.
package store

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"querylearn/internal/codec"
	"querylearn/internal/fault"
	"querylearn/internal/obs"
	"querylearn/internal/session"
)

// Fsync modes for Options.Fsync.
const (
	FsyncOff     = "off"
	FsyncBatched = "batched"
	FsyncAlways  = "always"
)

// Journal record formats, as journal-dump labels them. Reads dispatch per
// record ('{' is a v1 JSON event, anything else a v2 codec frame), so one
// file may mix both; every record the store writes is v2.
const (
	// FormatV1 is the JSON record format of older journals. It is only read:
	// opening a v1 directory upgrades it in place, because the boot-time
	// compaction rewrites every record as v2.
	FormatV1 = "v1"
	// FormatV2 is the binary codec frame with a per-file string intern table.
	FormatV2 = "v2"
)

// journal file names inside the data directory.
const (
	journalName = "journal.log"
	scratchName = "journal.tmp"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Options tunes a Store.
type Options struct {
	// Fsync is the durability mode: FsyncOff, FsyncBatched (default), or
	// FsyncAlways.
	Fsync string
	// BatchWindow is the group-commit window in batched mode (default 5ms):
	// how long appended events may sit in the OS before the background
	// fsync makes them durable.
	BatchWindow time.Duration
	// Faults optionally wires a fault-injection registry through every
	// syscall-shaped edge (see InjectionPoints). Nil disables injection;
	// the hooks then cost one nil check each.
	Faults *fault.Registry
	// Obs optionally wires an observability registry: the store registers
	// append/fsync/compaction latency histograms, the fsync group-size
	// histogram, journal-lag/bytes/degraded gauges, and the codec's
	// bytes/intern-table instruments under querylearn_store_* and
	// querylearn_codec_*. Sharing one registry with the server puts store and
	// HTTP metrics in the same /metrics scrape. Nil disables
	// instrumentation.
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	switch o.Fsync {
	case "":
		o.Fsync = FsyncBatched
	case FsyncOff, FsyncBatched, FsyncAlways:
	default:
		return o, fmt.Errorf("store: unknown fsync mode %q (want %q, %q, or %q)",
			o.Fsync, FsyncOff, FsyncBatched, FsyncAlways)
	}
	if o.BatchWindow <= 0 {
		o.BatchWindow = 5 * time.Millisecond
	}
	return o, nil
}

// Store is an append-only journal of session events in one data directory.
// It implements session.Journal and session.Compactor. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	lock   *os.File // flock on the data dir (nil where unsupported)
	closed bool

	// LSNs: appended counts records written to the OS, durable counts
	// records covered by an fsync. Their gap is the journal lag.
	appended int64
	durable  int64
	syncErr  error
	// appendErr poisons the store after a partial write that could not be
	// rolled back: appending past garbage would make recovery truncate
	// every later record as a torn tail.
	appendErr error
	// lastAppendErr remembers the most recent append failure that WAS
	// rolled back cleanly: the journal is intact but unavailable, so the
	// store reports itself degraded until an append succeeds again (or a
	// compaction rewrites the log).
	lastAppendErr error
	// degradedSince timestamps the first sticky fault above, for
	// /healthz; zero while healthy.
	degradedSince time.Time

	// kick wakes the flusher when there is undurable tail; done wakes
	// always-mode appenders waiting for their LSN to become durable.
	kick *sync.Cond
	done *sync.Cond

	flusherDone chan struct{}

	// Stats under mu.
	baseBytes  int64 // journal size after the last open/compaction
	tailBytes  int64 // bytes appended since
	tailEvents int64 // events appended since the last compaction

	// Tail-read cursor state (see tail.go). gen counts journal file
	// generations within this Open — every rewrite renames a fresh file (and
	// fresh intern dictionary) into place, so a reader's position is only
	// meaningful relative to a generation. fileRecords counts CRC-framed
	// records (including v2 dictionary records) in the current generation;
	// baseRecords is how many of those the rewrite itself wrote — a reader
	// past baseRecords of the newest generation has seen every session the
	// rewrite folded down, which is what CursorCovers uses to bridge cursors
	// across a compaction. appendC is closed and replaced whenever the cursor
	// advances, so tail readers can long-poll without spinning.
	// epoch is a random id minted once per Open. gen only counts rewrites
	// within one process lifetime — every boot starts over at gen 1 — so a
	// cursor is globally meaningful only as (epoch, gen, records). The
	// cluster ship protocol compares epochs to tell an owner restart from
	// plain continuity. Immutable after Open; read without mu.
	epoch       string
	gen         int64
	fileRecords int64
	baseRecords int64
	appendC     chan struct{}
	fsyncs      int64
	recovered   RecoveryStats
	lastComp    *CompactionStats

	// enc is the journal encoder for the CURRENT file generation; each
	// rewrite starts a fresh one, since the new file defines its own
	// dictionary from scratch. Guarded by mu. encBuf and recBuf are its
	// reused payload and record-framing buffers: the steady-state append
	// path allocates nothing.
	enc    *codec.Encoder
	encBuf []byte
	recBuf []byte

	// Observability handles, nil without Options.Obs (each use is one nil
	// check on the hot path).
	appendHist  *obs.Histogram // per-record write latency
	fsyncHist   *obs.Histogram // per-fsync latency
	fsyncBatch  *obs.Histogram // events covered per fsync group (value = count)
	compactHist *obs.Histogram // journal rewrite latency
	encodeHist  *obs.Histogram // v2 event encode latency
	bytesOut    *obs.Counter   // v2 payload bytes written
	bytesIn     *obs.Counter   // v2 payload bytes decoded during recovery
}

// RecoveryStats describes what the last Open found in the journal.
type RecoveryStats struct {
	Sessions      int   `json:"sessions"`
	Events        int64 `json:"events"`
	SkippedEvents int64 `json:"skipped_events,omitempty"`
	// DroppedBytes counts the torn tail recovery discarded; TornTail says
	// why (empty for a clean journal).
	DroppedBytes int64  `json:"dropped_bytes,omitempty"`
	TornTail     string `json:"torn_tail,omitempty"`
}

// CompactionStats describes the last journal rewrite.
type CompactionStats struct {
	At          time.Time `json:"at"`
	Sessions    int       `json:"sessions"`
	DurationMS  float64   `json:"duration_ms"`
	BytesBefore int64     `json:"bytes_before"`
	BytesAfter  int64     `json:"bytes_after"`
}

// Stats is the store's status snapshot: /healthz embeds part of it and the
// server exposes its counters as querylearn_store_* gauges.
type Stats struct {
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// Appended and Durable are event LSNs since open; Lag is their gap —
	// the events that would be lost to a power failure right now.
	Appended int64 `json:"events_appended"`
	Durable  int64 `json:"events_durable"`
	Lag      int64 `json:"journal_lag"`
	Fsyncs   int64 `json:"fsyncs"`
	// Bytes is the journal's current size; TailEvents counts events since
	// the last compaction (what a compaction would fold away).
	Bytes          int64            `json:"journal_bytes"`
	TailEvents     int64            `json:"tail_events"`
	Recovered      RecoveryStats    `json:"recovered"`
	LastCompaction *CompactionStats `json:"last_compaction,omitempty"`
	// SyncError reports a sticky fsync failure. Always-mode appends fail
	// loudly on it; in batched mode this field is the only signal, so
	// health checks should alarm on it.
	SyncError string `json:"sync_error,omitempty"`
	// Degraded reports the journal-unavailable state: mutations are being
	// rejected while reads keep serving. Reason and Since describe the
	// current episode for /healthz.
	Degraded       bool       `json:"degraded,omitempty"`
	DegradedReason string     `json:"degraded_reason,omitempty"`
	DegradedSince  *time.Time `json:"degraded_since,omitempty"`
}

// Open recovers the journal in dir and returns the store plus the live
// sessions it held, ready for session.Manager.Recover. The journal is
// rewritten compacted as part of opening (dropping any torn tail), so every
// boot starts from a normalized log: one snapshot record per session.
func Open(dir string, opts Options) (*Store, []session.Snapshot, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	// Declare every injection point up front so the chaos suite and the
	// fault counters see the full set even before any is crossed. Nil
	// registry: no-op.
	opts.Faults.Register(InjectionPoints()...)
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, journalName)

	var res replayResult
	if f, err := os.Open(path); err == nil {
		res = replayJournal(f)
		f.Close()
	} else if !os.IsNotExist(err) {
		if lock != nil {
			lock.Close()
		}
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	st := &Store{dir: dir, opts: opts, lock: lock, flusherDone: make(chan struct{})}
	var eb [8]byte
	if _, err := rand.Read(eb[:]); err != nil {
		if lock != nil {
			lock.Close()
		}
		return nil, nil, fmt.Errorf("store: minting journal epoch: %w", err)
	}
	st.epoch = hex.EncodeToString(eb[:])
	st.kick = sync.NewCond(&st.mu)
	st.done = sync.NewCond(&st.mu)
	st.appendC = make(chan struct{})
	st.registerObs()
	st.recovered = RecoveryStats{
		Sessions:      len(res.snaps),
		Events:        res.events,
		SkippedEvents: res.skipped,
	}
	if st.bytesIn != nil && res.bytesIn > 0 {
		st.bytesIn.Add(res.bytesIn)
	}
	if res.tailErr != nil {
		st.recovered.TornTail = res.tailErr.Error()
		if fi, err := os.Stat(path); err == nil {
			st.recovered.DroppedBytes = fi.Size() - res.goodBytes
		}
	}

	// Boot-time compaction: atomically replace the journal with one
	// snapshot record per surviving session. A crash at any point leaves
	// either the old journal or the new one — never a half state.
	if err := st.rewrite(res.snaps); err != nil {
		if lock != nil {
			lock.Close()
		}
		return nil, nil, err
	}
	if st.opts.Fsync != FsyncOff {
		go st.flusher()
	} else {
		close(st.flusherDone)
	}
	return st, res.snaps, nil
}

// rewrite replaces the journal with the given snapshots and (re)opens the
// append handle. Callers hold mu or have exclusive access.
func (st *Store) rewrite(snaps []session.Snapshot) error {
	path := filepath.Join(st.dir, journalName)
	scratch := filepath.Join(st.dir, scratchName)
	// A previous compaction that died before its rename (ENOSPC, crash)
	// leaves journal.tmp behind. Reclaim its space before writing the new
	// scratch file — on a full disk the leftover may be the very thing
	// wedging this compaction.
	os.Remove(scratch)
	if err := st.fire(PointCompactCreate); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.OpenFile(scratch, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := st.faultW(tmp, PointCompactWrite)
	var size int64
	// A fresh per-file encoder: the rewrite defines the new file's
	// dictionary from scratch (only installed as st.enc once the rename
	// succeeds). This is also the v1→v2 upgrade path — whatever format the
	// old records were, the rewrite emits v2.
	enc := codec.NewEncoder()
	// Two passes so the whole dictionary forms one section at the head of
	// the file: first encode every snapshot event (interning all strings),
	// then emit the dictionary frames followed by the event frames.
	events := make([][]byte, 0, len(snaps))
	dicts := make([][]byte, 0, 1)
	for i := range snaps {
		buf, dictEnd, err := enc.EncodeEvent(nil, session.Event{
			Kind: session.EventSnapshot, ID: snaps[i].ID, Snapshot: &snaps[i],
		})
		if err != nil {
			tmp.Close()
			os.Remove(scratch)
			return fmt.Errorf("store: encoding compacted journal: %w", err)
		}
		enc.Commit()
		if dictEnd > 0 {
			dicts = append(dicts, buf[:dictEnd:dictEnd])
		}
		events = append(events, buf[dictEnd:])
	}
	for _, section := range [2][][]byte{dicts, events} {
		for _, payload := range section {
			n, err := appendRecord(w, payload)
			size += n
			if err != nil {
				tmp.Close()
				os.Remove(scratch)
				return fmt.Errorf("store: writing compacted journal: %w", err)
			}
		}
	}
	records := int64(len(dicts) + len(events))
	if st.bytesOut != nil {
		st.bytesOut.Add(size - records*recordHeaderSize)
	}
	// The rewrite is always fsynced, whatever the append mode: it is the
	// one copy of every session it contains.
	err = st.fire(PointCompactSync)
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(scratch)
		return fmt.Errorf("store: %w", err)
	}
	closeErr := st.fire(PointCompactClose)
	if err := tmp.Close(); closeErr == nil {
		closeErr = err
	}
	if closeErr != nil {
		// The scratch file never made it to a clean close, so it will never
		// be renamed in; leaving it behind would eat disk until the next
		// boot. Remove it now.
		os.Remove(scratch)
		return fmt.Errorf("store: %w", closeErr)
	}
	err = st.fire(PointCompactRename)
	if err == nil {
		err = os.Rename(scratch, path)
	}
	if err != nil {
		os.Remove(scratch)
		return fmt.Errorf("store: %w", err)
	}
	// Directory fsync is best-effort on real filesystems, so an injected
	// failure here must be tolerated the same way: skip, don't fail.
	if err := st.fire(PointDirSync); err == nil {
		syncDir(st.dir)
	}

	if st.f != nil {
		st.f.Close()
	}
	err = st.fire(PointCompactReopen)
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	}
	if err != nil {
		// The compacted journal on disk is intact, but we no longer hold a
		// usable append handle; poison loudly (503s, degraded healthz)
		// rather than letting Append write to a closed fd. A restart
		// recovers cleanly.
		st.appendErr = fmt.Errorf("reopening journal after rewrite: %w", err)
		st.markDegradedLocked()
		return fmt.Errorf("store: %w", err)
	}
	st.f = f
	st.enc = enc // fresh dictionary for the new file generation
	st.baseBytes = size
	st.tailBytes = 0
	st.tailEvents = 0
	st.gen++
	st.fileRecords = records
	st.baseRecords = records
	st.notifyCursorLocked()
	// Every live session now sits in one fresh, fully-fsynced file, which is
	// the only event that resolves durability doubt: a later fsync succeeding
	// does not prove earlier failed writes reached disk, but a whole-file
	// rewrite does. Clear the sticky faults and leave degraded mode.
	st.appendErr = nil
	st.syncErr = nil
	st.lastAppendErr = nil
	st.degradedSince = time.Time{}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable; best-effort
// on filesystems that refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// registerObs wires the store's metric families into Options.Obs. The
// group-size histogram reuses the latency bucket layout by encoding one
// event as one second, so its le bounds read as approximate powers of two
// of events; _sum/_count give the exact mean group size.
func (st *Store) registerObs() {
	reg := st.opts.Obs
	if reg == nil {
		return
	}
	st.appendHist = reg.Histogram("querylearn_store_append_seconds",
		"journal record write latency (write-through to the OS, excluding fsync)")
	st.fsyncHist = reg.Histogram("querylearn_store_fsync_seconds",
		"journal fsync latency")
	st.fsyncBatch = reg.Histogram("querylearn_store_fsync_batch_events",
		"events made durable per fsync group (1 event encoded as 1s)")
	st.compactHist = reg.Histogram("querylearn_store_compaction_seconds",
		"journal compaction (rewrite) latency")
	reg.GaugeFunc("querylearn_store_journal_lag",
		"events appended but not yet covered by an fsync", func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			return float64(st.appended - st.durable)
		})
	reg.GaugeFunc("querylearn_store_journal_bytes",
		"current journal size in bytes", func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			return float64(st.baseBytes + st.tailBytes)
		})
	reg.GaugeFunc("querylearn_store_degraded",
		"1 while the journal is degraded (mutations rejected), else 0", func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.degradedLocked() != "" {
				return 1
			}
			return 0
		})
	st.encodeHist = reg.Histogram("querylearn_codec_encode_seconds",
		"v2 journal event encode latency (binary codec, excluding the write)")
	st.bytesOut = reg.Counter("querylearn_codec_bytes_out_total",
		"v2 payload bytes written to the journal (records' framing excluded)")
	st.bytesIn = reg.Counter("querylearn_codec_bytes_in_total",
		"v2 payload bytes decoded during journal replay")
	reg.GaugeFunc("querylearn_codec_intern_strings",
		"distinct strings in the current journal file's intern table", func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.enc == nil {
				return 0
			}
			return float64(st.enc.TableLen())
		})
	reg.GaugeFunc("querylearn_codec_intern_bytes",
		"total bytes of the current journal file's interned strings", func() float64 {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.enc == nil {
				return 0
			}
			return float64(st.enc.TableBytes())
		})
}

// observe is the nil-tolerant histogram record.
func observe(h *obs.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d)
	}
}

// Append journals one event (the session.Journal contract). The record is
// written through to the OS before Append returns in every mode — a SIGKILL
// cannot lose it — and in always mode Append additionally blocks until an
// fsync covers it.
func (st *Store) Append(ev session.Event) error { return st.AppendTraced(ev, nil) }

// AppendTraced is Append with per-phase attribution onto the request's
// trace (the session.TracedJournal contract, nil-safe): in always mode the
// group-commit wait is recorded as the fsync.wait phase, separating "the
// disk was slow" from "the write itself was slow" in slow-request logs.
func (st *Store) AppendTraced(ev session.Event, tr *obs.Trace) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.appendErr != nil {
		return fmt.Errorf("store: journal poisoned by earlier write failure: %w", st.appendErr)
	}
	// Encode under mu (the encoder's intern table is per-file state) and
	// frame the dictionary-extension record, if any, together with the event
	// record into ONE write: either both land or the rollback truncation
	// below removes both, keeping the file and the encoder's Commit/Rollback
	// in lockstep.
	encStart := time.Now()
	var dictEnd int
	var err error
	st.encBuf, dictEnd, err = st.enc.EncodeEvent(st.encBuf[:0], ev)
	if err != nil {
		return fmt.Errorf("store: encoding %s event: %w", ev.Kind, err)
	}
	rec := st.recBuf[:0]
	nrec := int64(1)
	if dictEnd > 0 {
		rec = frameRecord(rec, st.encBuf[:dictEnd])
		nrec = 2
	}
	rec = frameRecord(rec, st.encBuf[dictEnd:])
	st.recBuf = rec
	observe(st.encodeHist, time.Since(encStart))
	writeStart := time.Now()
	_, err = st.faultW(st.f, PointAppend).Write(rec)
	observe(st.appendHist, time.Since(writeStart))
	if err == nil {
		st.enc.Commit()
		if st.bytesOut != nil {
			st.bytesOut.Add(int64(len(st.encBuf)))
		}
	} else {
		st.enc.Rollback()
	}
	if err != nil {
		// A partial write leaves a torn record mid-file; anything appended
		// after it would be silently discarded at recovery (replay stops at
		// the first bad record). Roll the file back to its last good
		// length, or poison the store if even that fails.
		goodSize := st.baseBytes + st.tailBytes
		terr := st.fire(PointRollbackTruncate)
		if terr == nil {
			terr = st.f.Truncate(goodSize)
		}
		if terr != nil {
			st.appendErr = fmt.Errorf("%v (rollback truncate to %d failed: %v)", err, goodSize, terr)
		}
		// Even a cleanly rolled-back failure means the journal is not
		// accepting writes: report degraded until an append succeeds again.
		st.lastAppendErr = err
		st.markDegradedLocked()
		return fmt.Errorf("store: appending %s event: %w", ev.Kind, err)
	}
	st.appended++
	st.tailBytes += int64(len(rec))
	st.tailEvents++
	st.fileRecords += nrec
	st.notifyCursorLocked()
	if st.lastAppendErr != nil {
		// This append proves the journal is writable again.
		st.lastAppendErr = nil
		st.refreshDegradedLocked()
	}
	lsn := st.appended

	switch st.opts.Fsync {
	case FsyncOff:
		st.durable = st.appended
		return nil
	case FsyncBatched:
		st.kick.Signal()
		return nil
	default: // FsyncAlways: group commit — wait for a covering fsync.
		st.kick.Signal()
		waitDone := tr.StartPhase("fsync.wait")
		for st.durable < lsn && st.syncErr == nil && !st.closed {
			st.done.Wait()
		}
		waitDone()
		if st.syncErr != nil {
			return fmt.Errorf("store: fsync: %w", st.syncErr)
		}
		if st.durable < lsn {
			return ErrClosed
		}
		return nil
	}
}

// flusher is the group-commit loop: whenever there is an undurable tail it
// fsyncs once for the whole batch. Batched mode sleeps BatchWindow first so
// a burst of appends shares one fsync; always mode syncs as fast as the disk
// allows while appenders wait.
func (st *Store) flusher() {
	defer close(st.flusherDone)
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		for !st.closed && st.durable >= st.appended {
			st.kick.Wait()
		}
		if st.closed {
			return
		}
		if st.opts.Fsync == FsyncBatched {
			st.mu.Unlock()
			time.Sleep(st.opts.BatchWindow)
			st.mu.Lock()
			if st.closed {
				return
			}
		}
		// Sync outside the lock so appenders keep writing while the disk
		// flushes — the fsync covers everything appended up to target.
		target := st.appended
		f := st.f
		st.mu.Unlock()
		syncStart := time.Now()
		err := st.fire(PointFsync)
		if err == nil {
			err = f.Sync()
		}
		syncDur := time.Since(syncStart)
		st.mu.Lock()
		st.fsyncs++
		observe(st.fsyncHist, syncDur)
		// A compaction or close may have swapped the file underneath the
		// sync; its own fsync already covered the tail, so only account a
		// sync of the still-current handle.
		if st.f == f {
			if err != nil {
				st.syncErr = err
				st.markDegradedLocked()
			}
			if target > st.durable {
				// The group this fsync made durable, in the 1-event-per-second
				// encoding registerObs documents.
				observe(st.fsyncBatch, time.Duration(target-st.durable)*time.Second)
				st.durable = target
			}
		}
		st.done.Broadcast()
	}
}

// Compact rewrites the journal as the given snapshots (the session.Compactor
// contract). The manager calls it with the event stream frozen, so the
// snapshot set and the journal cut point agree; events appended afterwards
// form the new tail.
func (st *Store) Compact(snaps []session.Snapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	start := time.Now()
	before := st.baseBytes + st.tailBytes
	if err := st.rewrite(snaps); err != nil {
		return err
	}
	// Everything appended so far is subsumed by the fsynced rewrite.
	st.durable = st.appended
	st.done.Broadcast()
	dur := time.Since(start)
	observe(st.compactHist, dur)
	st.lastComp = &CompactionStats{
		At:          start,
		Sessions:    len(snaps),
		DurationMS:  float64(dur.Nanoseconds()) / 1e6,
		BytesBefore: before,
		BytesAfter:  st.baseBytes,
	}
	return nil
}

// Sync forces an fsync of everything appended so far — the final flush on
// graceful shutdown.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.syncLocked()
}

func (st *Store) syncLocked() error {
	syncStart := time.Now()
	err := st.fire(PointSync)
	if err == nil {
		err = st.f.Sync()
	}
	observe(st.fsyncHist, time.Since(syncStart))
	if err != nil {
		st.syncErr = err
		st.markDegradedLocked()
		return fmt.Errorf("store: fsync: %w", err)
	}
	st.fsyncs++
	st.durable = st.appended
	st.done.Broadcast()
	return nil
}

// Close flushes, fsyncs, and releases the journal. Appends after Close fail
// with ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	err := st.syncLocked()
	st.closed = true
	st.kick.Broadcast()
	st.done.Broadcast()
	st.notifyCursorLocked()
	st.mu.Unlock()
	<-st.flusherDone

	st.mu.Lock()
	defer st.mu.Unlock()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	if st.lock != nil {
		st.lock.Close() // releases the flock
	}
	return err
}

// Abandon drops the store's file handles without flushing, fsyncing, or
// compacting — exactly what a SIGKILL does (the OS releases the directory
// lock and keeps whatever bytes the journal's writes already handed it).
// Crash tests and the durability experiment use it to die mid-flight and
// reopen the same directory in-process.
func (st *Store) Abandon() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.kick.Broadcast()
	st.done.Broadcast()
	st.notifyCursorLocked()
	st.f.Close()
	if st.lock != nil {
		st.lock.Close()
	}
	st.mu.Unlock()
	<-st.flusherDone
}

// Stats snapshots the store's status block.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Dir:        st.dir,
		Fsync:      st.opts.Fsync,
		Appended:   st.appended,
		Durable:    st.durable,
		Lag:        st.appended - st.durable,
		Fsyncs:     st.fsyncs,
		Bytes:      st.baseBytes + st.tailBytes,
		TailEvents: st.tailEvents,
		Recovered:  st.recovered,
	}
	if st.lastComp != nil {
		cp := *st.lastComp
		s.LastCompaction = &cp
	}
	// Both sticky faults matter to operators; report whichever happened,
	// or both.
	switch {
	case st.syncErr != nil && st.appendErr != nil:
		s.SyncError = st.syncErr.Error() + "; " + st.appendErr.Error()
	case st.syncErr != nil:
		s.SyncError = st.syncErr.Error()
	case st.appendErr != nil:
		s.SyncError = st.appendErr.Error()
	}
	if reason := st.degradedLocked(); reason != "" {
		s.Degraded = true
		s.DegradedReason = reason
		since := st.degradedSince
		s.DegradedSince = &since
	}
	return s
}

// markDegradedLocked stamps the start of the current degraded episode; a
// later fault inside the same episode keeps the original timestamp.
func (st *Store) markDegradedLocked() {
	if st.degradedSince.IsZero() {
		st.degradedSince = time.Now()
	}
}

// refreshDegradedLocked ends the episode once no fault remains.
func (st *Store) refreshDegradedLocked() {
	if st.appendErr == nil && st.syncErr == nil && st.lastAppendErr == nil {
		st.degradedSince = time.Time{}
	}
}

// degradedLocked composes the operator-facing reason; empty while healthy.
func (st *Store) degradedLocked() string {
	var parts []string
	if st.appendErr != nil {
		parts = append(parts, "journal poisoned: "+st.appendErr.Error())
	}
	if st.lastAppendErr != nil {
		parts = append(parts, "append failing: "+st.lastAppendErr.Error())
	}
	if st.syncErr != nil {
		parts = append(parts, "fsync failing: "+st.syncErr.Error())
	}
	return strings.Join(parts, "; ")
}

// Degraded reports whether the journal is in degraded mode — sticky or
// transient write faults outstanding — with the operator-facing reason and
// when the episode began. A degraded store keeps serving reads; mutations
// fail until an append succeeds or a compaction rewrites the log.
func (st *Store) Degraded() (reason string, since time.Time, degraded bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	reason = st.degradedLocked()
	return reason, st.degradedSince, reason != ""
}
