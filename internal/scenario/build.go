package scenario

import (
	"context"
	"time"

	"repro/internal/attack"
	"repro/internal/worksite"
)

// Build compiles a spec into a steppable worksite session and its scheduled
// attack campaign. The attack schedule is resolved against d (window
// fractions become simulated times), armed through the registry, installed
// on the site's scheduler, and wired into the session's event stream, so a
// subscriber sees AttackPhase events interleaved with the per-tick
// snapshots. The session's horizon is d: callers either close the loop with
// sess.Run(ctx, d) / RunFor(ctx, d), or drive it tick by tick with Step /
// RunUntil.
// The returned campaign exposes the window and phase logs for reports.
// Build is a batch of one: NewBatch followed by Batch.Build.
func Build(spec Spec, seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	b, err := NewBatch(spec)
	if err != nil {
		return nil, nil, err
	}
	return b.Build(seed, d)
}

// Run builds the spec and executes it for d of simulated time. The context
// bounds wall-clock execution (see worksite.Session.RunFor): a cancelled or
// expired context ends the run between ticks with ctx.Err(), and a context
// that never fires leaves the result byte-identical to an uncancellable run.
// Like Build, it is a batch of one.
func Run(ctx context.Context, spec Spec, seed int64, d time.Duration) (worksite.Report, error) {
	b, err := NewBatch(spec)
	if err != nil {
		return worksite.Report{}, err
	}
	return b.Run(ctx, seed, d)
}
