package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/worksite"
)

// batchTemplateSeed roots every batch's key material, so every session —
// a batch of one from Build or worksim.Open included — forks channels keyed
// from this seed. Any seed works: key bytes never reach simulation-observable
// output (worksim's catalog golden and OpenBatch byte-identity tests lock
// this).
const batchTemplateSeed int64 = 0

// Batch compiles one spec into shareable commissioned state — validated
// spec, security bundle (CA, identities, established channels) — and builds
// arbitrarily many cheap per-seed sessions from it. Every scenario session
// is commissioned through a Batch: Build and Run are a batch of one, and a
// seed sweep pays for keygen and four handshakes once rather than per seed.
//
// A Batch is immutable after NewBatch and safe for concurrent Build/Run
// calls from pool workers.
type Batch struct {
	spec   Spec
	shared *worksite.SharedSecurity
}

// NewBatch validates the spec and commissions its shared security state
// once.
func NewBatch(spec Spec) (*Batch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shared, err := worksite.CommissionSecurity(spec.Config(batchTemplateSeed))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: commission shared security: %w", spec.Name, err)
	}
	return &Batch{spec: spec, shared: shared}, nil
}

// Spec returns the batch's compiled spec.
func (b *Batch) Spec() Spec { return b.spec }

// Build compiles one per-seed session over the batch's commissioned state
// (see the package-level Build for the contract).
func (b *Batch) Build(seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	spec := b.spec
	if d <= 0 {
		return nil, nil, fmt.Errorf("scenario %q: duration must be positive, got %v", spec.Name, d)
	}
	sess, err := worksite.NewSessionShared(spec.Config(seed), b.shared)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sess.SetHorizon(d)
	site := sess.Site()
	c := attack.NewCampaign()
	c.OnPhase = func(e attack.PhaseEvent) {
		sess.EmitAttackPhase(e.At, e.Attack, e.Active)
	}
	for i, a := range spec.Attacks {
		cls, ok := lookupAttack(a.Name)
		if !ok {
			// NewBatch's Validate caught unknown names already; keep the
			// guard for attack slices mutated after validation.
			return nil, nil, fmt.Errorf("scenario %q: attacks[%d]: unknown attack class %q", spec.Name, i, a.Name)
		}
		ctx := ArmContext{
			Site:     site,
			Campaign: c,
			Start:    time.Duration(a.StartFrac * float64(d)),
			Stop:     time.Duration(a.StopFrac * float64(d)),
			Duration: d,
			Params:   a.Params,
		}
		if err := cls.arm(ctx); err != nil {
			return nil, nil, fmt.Errorf("scenario %q: arm %s: %w", spec.Name, a.Name, err)
		}
	}
	c.Schedule(site.Scheduler())
	return sess, c, nil
}

// Run builds one per-seed session and executes it for d of simulated time,
// with the same contract as the package-level Run.
func (b *Batch) Run(ctx context.Context, seed int64, d time.Duration) (worksite.Report, error) {
	sess, _, err := b.Build(seed, d)
	if err != nil {
		return worksite.Report{}, err
	}
	rep, err := sess.Run(ctx, d)
	if err != nil {
		return worksite.Report{}, fmt.Errorf("scenario %q: %w", b.spec.Name, err)
	}
	return rep, nil
}
