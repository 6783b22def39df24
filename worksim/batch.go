package worksim

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// Batch is a set of per-seed sessions over one commissioned scenario:
// OpenBatch builds and commissions the expensive shared state (validated
// spec, PKI material, established secure channels) once, then forks a cheap
// session per seed. Open is the batch of one, so a batched session's report
// and event stream are byte-identical to an Open of the same (Scenario,
// seed, horizon, profile).
type Batch struct {
	seeds    []int64
	sessions []*Session
}

// OpenBatch compiles spec once and returns one session per seed, in seed
// order. Options apply to every session; WithSeed is rejected, because the
// seeds argument is the batch's seed axis. A WithObserver observer is
// subscribed to every session: fine for the sequential Batch.Run, but
// callers running sessions concurrently should instead attach per-session
// observers via Session(i).Subscribe before starting.
func OpenBatch(spec Scenario, seeds []int64, opts ...Option) (*Batch, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("worksim: OpenBatch needs at least one seed")
	}
	return openBatch(spec, seeds, opts)
}

// openBatch resolves opts against spec, commissions it once through
// scenario.NewBatch and builds one session per seed with the options'
// observers wired. Nil seeds is Open's batch of one, at the WithSeed seed;
// otherwise the seeds are the batch's and WithSeed is refused.
func openBatch(spec Scenario, seeds []int64, opts []Option) (*Batch, error) {
	c := sessionConfig{seed: DefaultSeed}
	for _, opt := range opts {
		opt(&c)
	}
	if seeds == nil {
		seeds = []int64{c.seed}
	} else if c.seedSet {
		return nil, fmt.Errorf("worksim: OpenBatch got WithSeed; seeds are the batch argument")
	}
	if c.horizon <= 0 {
		if spec.Horizon > 0 {
			c.horizon = spec.Horizon
		} else {
			c.horizon = DefaultHorizon
		}
	}
	if c.profile != nil {
		spec = spec.WithProfile(*c.profile)
	}
	sb, err := scenario.NewBatch(spec)
	if err != nil {
		return nil, err
	}
	b := &Batch{seeds: append([]int64(nil), seeds...)}
	for _, seed := range b.seeds {
		inner, _, err := sb.Build(seed, c.horizon)
		if err != nil {
			return nil, err
		}
		s := &Session{inner: inner}
		if c.sample > 0 {
			// The exact observer sweep timeseries use, so Session.Timeseries
			// and SeedRun.Timeseries can never drift on policy or fields.
			inner.Subscribe(campaign.SampleObserver(c.sample, &s.series))
		}
		for _, o := range c.observers {
			inner.Subscribe(o)
		}
		b.sessions = append(b.sessions, s)
	}
	return b, nil
}

// Len returns the number of per-seed sessions.
func (b *Batch) Len() int { return len(b.sessions) }

// Seed returns the i-th session's seed.
func (b *Batch) Seed(i int) int64 { return b.seeds[i] }

// Session returns the i-th per-seed session, in the order of OpenBatch's
// seeds argument.
func (b *Batch) Session(i int) *Session { return b.sessions[i] }

// Run executes every session to its horizon sequentially, in seed order, and
// returns the reports in the same order. Each report is byte-identical to
// the same seed run through Open + Run, the batch of one.
func (b *Batch) Run(ctx context.Context) ([]Report, error) {
	reports := make([]Report, 0, len(b.sessions))
	for i, s := range b.sessions {
		rep, err := s.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("worksim: batch seed %d: %w", b.seeds[i], err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
