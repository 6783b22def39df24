package worksim

import (
	"context"
	"time"

	"repro/internal/worksite"
	"repro/worksim/event"
)

// Defaults Open applies when the corresponding option is absent.
const (
	// DefaultSeed roots every random stream of a run opened without
	// WithSeed.
	DefaultSeed int64 = 42
	// DefaultHorizon is the simulated duration of a session opened without
	// WithHorizon.
	DefaultHorizon = 10 * time.Minute
)

// sessionConfig is the option-resolved state Open and OpenBatch build
// sessions from.
type sessionConfig struct {
	seed      int64
	seedSet   bool // WithSeed was given (OpenBatch rejects it)
	horizon   time.Duration
	profile   *SecurityProfile
	sample    time.Duration
	observers []event.Observer
}

// Option configures Open.
type Option func(*sessionConfig)

// WithSeed roots every random stream of the run at seed. A scenario is an
// operational situation; the seed is deliberately a run parameter, so the
// same Scenario fans out over seed ranges.
func WithSeed(seed int64) Option {
	return func(c *sessionConfig) { c.seed = seed; c.seedSet = true }
}

// WithHorizon bounds the session at d of simulated time. The horizon also
// anchors the scenario's attack schedule: window fractions resolve against
// it, so the same Scenario scales to any duration.
func WithHorizon(d time.Duration) Option {
	return func(c *sessionConfig) { c.horizon = d }
}

// WithProfile replaces the scenario's security profile for this run — the
// sweep axis of the paper's unsecured-vs-secured comparison.
func WithProfile(p SecurityProfile) Option {
	return func(c *sessionConfig) { prof := p; c.profile = &prof }
}

// WithSampleInterval records a downsampled per-tick timeseries: one
// TimePoint per d of simulated time, readable via Session.Timeseries.
// Sampling is a passive observer; it never changes run outcomes.
func WithSampleInterval(d time.Duration) Option {
	return func(c *sessionConfig) { c.sample = d }
}

// WithObserver subscribes an observer to the session's typed event stream
// before the run starts. Repeatable; observers are invoked in subscription
// order.
func WithObserver(o event.Observer) Option {
	return func(c *sessionConfig) { c.observers = append(c.observers, o) }
}

// Session is a steppable, cancellable handle on one compiled scenario run.
// It owns the progression of virtual time — step one control tick at a
// time, advance in bulk with RunFor, or drive until a predicate fires — and
// fans the typed event stream out to subscribed observers.
//
// Determinism contract: a session produces a Report byte-identical for the
// same (Scenario, seed, horizon) however its time was advanced, whatever was
// subscribed, and whichever never-firing context drove it.
type Session struct {
	inner  *worksite.Session
	series []TimePoint
}

// Open compiles a Scenario into a runnable session: the worksite is
// commissioned from the spec, the attack schedule is resolved against the
// horizon and armed, and the session's event stream is wired. Options
// default to DefaultSeed, the scenario's own security profile, and — for the
// horizon — the spec's declared Horizon when it has one, DefaultHorizon
// otherwise. Open is a batch of one: OpenBatch at the WithSeed seed.
func Open(spec Scenario, opts ...Option) (*Session, error) {
	b, err := openBatch(spec, nil, opts)
	if err != nil {
		return nil, err
	}
	return b.sessions[0], nil
}

// Subscribe registers an observer for the session's event stream; equivalent
// to the WithObserver option but usable between stepping phases.
func (s *Session) Subscribe(o event.Observer) { s.inner.Subscribe(o) }

// Step advances the simulation to exactly the next control tick and returns
// its snapshot. It reports false once the horizon is reached (after draining
// the final partial tick) or the simulation stopped — check Err to tell the
// two apart.
func (s *Session) Step() (event.Tick, bool) { return s.inner.Step() }

// RunFor advances the simulation by d of virtual time, clamped to the
// horizon. The context bounds wall-clock execution: cancellation is observed
// between control ticks and returns ctx.Err() with the session intact at the
// last completed tick; a context that never fires yields byte-identical
// results to context.Background().
func (s *Session) RunFor(ctx context.Context, d time.Duration) error {
	return s.inner.RunFor(ctx, d)
}

// RunUntil steps tick by tick until stop returns true for a snapshot, the
// horizon is reached, the context fires, or the simulation stops. It reports
// whether the predicate fired. Predicates must be pure functions of the
// snapshot so runs stay deterministic.
func (s *Session) RunUntil(ctx context.Context, stop func(event.Tick) bool) (bool, error) {
	return s.inner.RunUntil(ctx, stop)
}

// Run is the convenience closed loop: advance to the horizon, then Report.
func (s *Session) Run(ctx context.Context) (Report, error) {
	if err := s.inner.RunFor(ctx, s.inner.Horizon()-s.inner.Now()); err != nil {
		return Report{}, err
	}
	return s.inner.Report(), nil
}

// Report finalises and returns the report over the time advanced so far. The
// session remains steppable afterwards; a later Report covers the longer
// window.
func (s *Session) Report() Report { return s.inner.Report() }

// Now returns how much virtual time the session has advanced.
func (s *Session) Now() time.Duration { return s.inner.Now() }

// Horizon returns the session's simulated-time bound.
func (s *Session) Horizon() time.Duration { return s.inner.Horizon() }

// Done reports whether the session has reached its horizon or stopped.
func (s *Session) Done() bool { return s.inner.Done() }

// Err returns the sticky simulation-stop error, nil for a session that only
// ran out its horizon (or was merely cancelled).
func (s *Session) Err() error { return s.inner.Err() }

// Timeseries returns the downsampled per-tick series recorded under
// WithSampleInterval (nil without it). The slice grows as the session
// advances; callers must not retain it across further stepping if they need
// a stable snapshot.
func (s *Session) Timeseries() []TimePoint { return s.series }

// RenderMap renders the ASCII worksite map at the session's current state,
// capped at maxCols columns.
func (s *Session) RenderMap(maxCols int) string { return s.inner.Site().RenderMap(maxCols) }

// RenderTimeline renders up to n operational timeline events accumulated so
// far.
func (s *Session) RenderTimeline(n int) string { return s.inner.Site().RenderTimeline(n) }
