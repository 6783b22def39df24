// Package repro reproduces "Cybersecurity Pathways Towards CE-Certified
// Autonomous Forestry Machines" (Mohamad et al., DSN 2024) as a complete Go
// library: a simulated partially-autonomous forestry worksite (autonomous
// forwarder, observation drone, manual harvester) with the full
// cybersecurity stack the paper's certification pathway requires, the
// combined safety–security risk-assessment methodology it proposes, and the
// assurance-case and CE-conformity machinery it argues for.
//
// The supported, stable surface is the public worksim façade:
//
//   - worksim — the Scenario catalog (Catalog/Lookup/ForAttack/LoadSpec),
//     Open(spec, ...Option) returning a steppable, context-cancellable
//     *Session, Report/Metrics, and Sweep(ctx, SweepOptions) for
//     scenario × profile × seed campaigns. Sweeps scale out: ShardSel
//     partitions the cube across processes (ParseShard/AssignShard,
//     MergeSweeps recombining shard outputs byte-identically),
//     SweepOptions.CacheDir serves repeated runs from a content-addressed
//     cache keyed on SpecHash and the full run shape, and CheckpointDir
//     resumes a killed campaign at its completed-run watermark.
//     worksim.Version identifies the engine version; every cmd/ binary
//     reports it via -version and every sweep/campaign JSON export carries
//     it.
//   - worksim/scenariospec — the declarative JSON scenario model (site,
//     weather, workers, drone, fusion policy, security profile, attack
//     schedule as data).
//   - worksim/event — the typed event stream (tick snapshots, IDS alerts,
//     attack phases, security responses, mode changes, mission transitions,
//     safety events) and the Observer interface.
//   - worksim/pathway — the certification-pathway pipeline (combined risk
//     assessment, operational evidence, assurance case, CE conformity) and
//     the standards registry.
//   - worksim/experiments — the registered E1–E10 experiment runners and
//     the Monte-Carlo campaign engine with statistical aggregation.
//   - worksim/report — the table/figure rendering primitives all artifacts
//     share.
//   - worksim/trace — the JSON-lines encoding of the event stream
//     ({"event": KIND, "data": {...}}), shared verbatim by `worksite-sim
//     -trace` files and the worksimd SSE payload.
//   - worksim/serve — simulation-as-a-service: the HTTP server behind
//     cmd/worksimd with asynchronous run/sweep jobs, live SSE event
//     streaming with replay, API-key auth, per-key rate limiting, job
//     quotas and graceful drain. A daemon run's report is byte-identical
//     to an in-process worksim run at the same parameters.
//   - worksim/bench — the tracked benchmark harness: a named catalog of
//     micro/macro benchmarks (single tick, full E1 run, 32-seed sweep) that
//     cmd/bench persists as BENCH_<date>.json so the hot path's performance
//     trajectory is diffable PR over PR.
//
// Performance: the per-tick control loop is allocation-free in steady state
// (scratch buffers, pooled tracks/frames/events, a reused wire codec),
// locked at 0 allocs/op by TestTickLoopZeroAllocs. See the README's
// "Performance" section for the recorded numbers and how to regenerate
// them.
//
// Execution is context-aware end to end: Session.RunFor/RunUntil/Run and
// the campaign worker pool observe cancellation between control ticks and
// surface ctx.Err(); a context that never fires yields byte-identical
// results to an uncancellable run, so determinism and cancellability
// compose. The cmd/ binaries install signal-driven cancellation, so Ctrl-C
// stops a simulation at the next tick with the worker pool drained; the
// worksimd daemon drains the same way, cancelling in-flight jobs between
// ticks once its drain deadline passes.
//
// Campaigns at scale: internal/shard assigns every (scenario, profile,
// seed) run to a shard by a stable FNV-1a hash — independent of enumeration
// order — so `campaign -shard i/N` processes partition a sweep and
// `campaign -merge` recombines their outputs into bytes identical to the
// single-process run. internal/resultcache stores completed runs in
// checksummed, atomically-written entries addressed by the SHA-256 of the
// full run key (spec hash, profile, seed, duration, sampling, early-stop
// name, engine version); damaged entries are detected, evicted and
// recomputed, never trusted. Checkpoint journals (JSON lines, torn-tail
// tolerant) make a killed campaign resumable. None of the three changes a
// byte of sweep output — only where the bytes come from.
//
// Everything under internal/ is engine: free to evolve, reachable only
// through the façade. The cmd/ binaries and examples/ import exclusively
// repro/worksim... packages — a boundary enforced, along with the
// determinism, context-discipline and goroutine-join invariants, by the
// custom static-analysis suite in internal/analysis, run as a required CI
// step via `go run ./cmd/worksimlint ./...`. Two comment directives steer
// it: //worksim:allow <reason> (audited suppression) and //worksim:tickloop
// (loop that must observe ctx cancellation). The zero-allocation hot path
// is held by testing.AllocsPerRun locks, not by the linter. See the
// README's "Static analysis"
// section, plus the architecture overview, the package map and the
// stable-vs-internal table.
package repro
