// Package fault is the deterministic fault-injection layer behind the
// chaos suite and the daemon's -fault-spec dev flag. Code under test
// declares named injection points at its syscall-shaped edges (a journal
// append, an fsync, a snapshot rename); tests and operators arm those
// points with a Spec — fail with an error, fail with ENOSPC, write only a
// prefix then fail (a torn record), or add latency — on a deterministic,
// seeded schedule. A point that is not armed costs one mutex-guarded map
// lookup, and a nil *Registry costs nothing at all, so production builds
// carry the hooks without carrying the risk.
//
// Schedules are reproducible by construction: the counting knobs (After,
// Times, Every) are plain hit arithmetic, and the probabilistic knob (P)
// draws from a per-point rand.Rand seeded by Spec.Seed — the same spec
// against the same call sequence injects the same faults.
package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Point names one injection point. Packages declare their points as
// constants (e.g. store.append, store.compact.rename) and register them so
// the chaos suite can enumerate every edge and report zeroes for the quiet
// ones.
type Point string

// Modes for Spec.Mode.
const (
	// ModeError fails the operation with a generic injected error (or
	// Spec.Msg).
	ModeError = "error"
	// ModeENOSPC fails the operation with an error wrapping
	// syscall.ENOSPC — the disk-full case every append and compaction
	// path must survive.
	ModeENOSPC = "enospc"
	// ModePartial applies to write-shaped points: the first Spec.Bytes
	// bytes are written through to the underlying writer, then the write
	// fails — a torn record, the shape a crash leaves mid-append.
	ModePartial = "partial"
	// ModeLatency delays the operation by Spec.Delay and lets it proceed —
	// a slow disk or a GC-stalled peer, not a broken one.
	ModeLatency = "latency"
)

// ErrInjected is the base error every injected failure wraps, so tests can
// errors.Is a surfaced error back to the injection layer.
var ErrInjected = errors.New("fault injected")

// Spec arms one injection point. The zero value of every field means
// "no constraint": fire on every hit, forever.
type Spec struct {
	// Mode is one of ModeError, ModeENOSPC, ModePartial, ModeLatency.
	Mode string
	// After skips the first After hits of the point before the schedule
	// starts firing.
	After int
	// Times caps the number of injections (0 = unlimited). A point whose
	// Times are spent behaves as if unarmed.
	Times int
	// Every fires on every Every-th eligible hit (0 or 1 = every hit).
	Every int
	// P fires each eligible hit with probability P (0 = always fire),
	// drawn from a rand.Rand seeded with Seed — the same spec against the
	// same call sequence injects the same faults.
	P    float64
	Seed int64
	// Delay is the injected latency (ModeLatency, or added to any mode).
	Delay time.Duration
	// Bytes is how much of the payload a ModePartial write lets through
	// before failing.
	Bytes int
	// Msg overrides the injected error message.
	Msg string
}

func (s Spec) validate() error {
	switch s.Mode {
	case ModeError, ModeENOSPC, ModePartial, ModeLatency:
	default:
		return fmt.Errorf("fault: unknown mode %q (want %q, %q, %q, or %q)",
			s.Mode, ModeError, ModeENOSPC, ModePartial, ModeLatency)
	}
	if s.P < 0 || s.P > 1 {
		return fmt.Errorf("fault: probability %v outside [0, 1]", s.P)
	}
	if s.Bytes < 0 {
		return fmt.Errorf("fault: negative partial-write bytes %d", s.Bytes)
	}
	return nil
}

// err builds the injected error for a firing of point p.
func (s Spec) err(p Point) error {
	switch s.Mode {
	case ModeLatency:
		return nil
	case ModeENOSPC:
		return fmt.Errorf("%w at %s: %w", ErrInjected, p, syscall.ENOSPC)
	}
	msg := s.Msg
	if msg == "" {
		msg = "injected " + s.Mode
	}
	return fmt.Errorf("%w at %s: %s", ErrInjected, p, msg)
}

// Injection is one firing of an armed point. A nil *Injection means the
// operation proceeds untouched.
type Injection struct {
	// Err is the failure to surface; nil for a pure latency injection.
	Err error
	// Delay is slept before the operation (latency mode, or any mode with
	// Spec.Delay set).
	Delay time.Duration
	// Partial is the byte prefix a write lets through before failing
	// (ModePartial only; -1 otherwise).
	Partial int
}

// armed is the live schedule state of one point.
type armed struct {
	spec     Spec
	hits     int64 // hits since arming (the schedule's clock)
	eligible int64 // hits past After
	injected int64
	rng      *rand.Rand
}

// Stats is one point's counter snapshot: how often the point was crossed
// and how many faults it injected.
type Stats struct {
	Hits     int64 `json:"hits"`
	Injected int64 `json:"injected"`
}

// Registry tracks a set of injection points. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is the disabled layer: every
// method is a safe no-op and Fire always returns nil.
type Registry struct {
	mu     sync.Mutex
	points map[Point]*armed
	// known remembers every registered point (armed or not) plus its
	// lifetime hit count, so enumeration and metrics cover quiet points.
	known map[Point]*Stats
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{points: map[Point]*armed{}, known: map[Point]*Stats{}}
}

// Register declares points so they appear in Points and Counts before ever
// being armed or crossed. Registering an existing point is a no-op.
func (r *Registry) Register(points ...Point) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range points {
		if r.known[p] == nil {
			r.known[p] = &Stats{}
		}
	}
}

// Arm installs a schedule at a point. Re-arming replaces the previous
// schedule and restarts its hit counting.
func (r *Registry) Arm(p Point, s Spec) error {
	if r == nil {
		return errors.New("fault: arming a nil registry")
	}
	if err := s.validate(); err != nil {
		return err
	}
	a := &armed{spec: s}
	if s.P > 0 {
		a.rng = rand.New(rand.NewSource(s.Seed))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.known[p] == nil {
		r.known[p] = &Stats{}
	}
	r.points[p] = a
	return nil
}

// Disarm removes a point's schedule; the point stays registered.
func (r *Registry) Disarm(p Point) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.points, p)
}

// DisarmAll removes every schedule (between chaos test cases).
func (r *Registry) DisarmAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = map[Point]*armed{}
}

// Fire records one crossing of a point and returns the injection to apply,
// or nil to proceed untouched. Callers sleep Injection.Delay themselves
// (Sleep does both), so firings stay cheap under locks that must not stall.
func (r *Registry) Fire(p Point) *Injection {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.known[p]
	if st == nil {
		st = &Stats{}
		r.known[p] = st
	}
	st.Hits++
	a := r.points[p]
	if a == nil {
		return nil
	}
	a.hits++
	if a.spec.Times > 0 && a.injected >= int64(a.spec.Times) {
		return nil
	}
	if a.hits <= int64(a.spec.After) {
		return nil
	}
	a.eligible++
	if every := int64(a.spec.Every); every > 1 && a.eligible%every != 0 {
		return nil
	}
	if a.rng != nil && a.rng.Float64() >= a.spec.P {
		return nil
	}
	a.injected++
	st.Injected++
	inj := &Injection{Err: a.spec.err(p), Delay: a.spec.Delay, Partial: -1}
	if a.spec.Mode == ModePartial {
		inj.Partial = a.spec.Bytes
	}
	return inj
}

// Sleep fires a point and applies its latency inline, returning the error
// to surface (nil to proceed). The one-line form for call sites that are
// not holding a contended lock.
func (r *Registry) Sleep(p Point) error {
	inj := r.Fire(p)
	if inj == nil {
		return nil
	}
	if inj.Delay > 0 {
		time.Sleep(inj.Delay)
	}
	return inj.Err
}

// Writer wraps w so writes crossing point p honor its schedule: an armed
// error fails the write, and ModePartial writes only the spec'd prefix
// through before failing — the torn-record shape.
func (r *Registry) Writer(w io.Writer, p Point) io.Writer {
	if r == nil {
		return w
	}
	return &faultWriter{w: w, r: r, p: p}
}

type faultWriter struct {
	w io.Writer
	r *Registry
	p Point
}

func (fw *faultWriter) Write(b []byte) (int, error) {
	inj := fw.r.Fire(fw.p)
	if inj == nil {
		return fw.w.Write(b)
	}
	if inj.Delay > 0 {
		time.Sleep(inj.Delay)
	}
	if inj.Err == nil {
		return fw.w.Write(b)
	}
	n := 0
	if inj.Partial > 0 {
		cut := inj.Partial
		if cut > len(b) {
			cut = len(b)
		}
		// Write the prefix through for real: the bytes must land so the
		// torn record exists on disk, exactly like a crash mid-write.
		var werr error
		n, werr = fw.w.Write(b[:cut])
		if werr != nil {
			return n, fmt.Errorf("%v (and %v)", inj.Err, werr)
		}
	}
	return n, inj.Err
}

// Points lists every registered point in sorted order.
func (r *Registry) Points() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, len(r.known))
	for p := range r.known {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Counts snapshots every registered point's hit and injection counters.
func (r *Registry) Counts() map[string]Stats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Stats, len(r.known))
	for p, st := range r.known {
		out[string(p)] = *st
	}
	return out
}

// Injected sums the injected-fault counters across all points.
func (r *Registry) Injected() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, st := range r.known {
		n += st.Injected
	}
	return n
}
