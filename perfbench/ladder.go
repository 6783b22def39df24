package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/campaign"
	"repro/internal/fusion"
	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/pki"
	"repro/internal/radio"
	"repro/internal/resultcache"
	"repro/internal/risk"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/securechan"
	"repro/internal/sensors"
	"repro/internal/simclock"
	"repro/internal/worksite"
	"repro/worksim"
	"repro/worksim/event"
	"repro/worksim/trace"
)

const (
	// probeSamples is how many timed samples one layer probe takes; a
	// fixed count, so a probed layer's state evolves the same way each run.
	probeSamples = 25
	// probeSeed seeds the probe sessions, so the exact counts they give
	// are constants of the tree, the same for every workload seed.
	probeSeed = worksim.DefaultSeed
	// probeScenario exercises every tick layer: drone, attacks, IDS alerts
	// and, secured, the record layer and the live risk register.
	probeScenario = "multi-attack"
)

// runLadder measures every layer by calling its functions from outside,
// records a span around each call, and derives the per-layer metrics from
// those spans and from the spans the workload's traced phase recorded.
func runLadder(e *env, out *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	cells, err := catalogCells()
	if err != nil {
		return nil, err
	}
	spans := e.spans
	note := func(format string, args ...any) {
		out.notes = append(out.notes, fmt.Sprintf("ladder: "+format, args...))
	}

	// Commissioning: one Open and one NewBatch per catalog cell.
	seeds := cellSeeds(e.seed+1, len(cells))
	for i, c := range cells {
		s := spans.begin()
		if _, err := worksim.Open(c.spec, worksim.WithSeed(seeds[i]), worksim.WithHorizon(daemonHorizon), worksim.WithProfile(c.prof)); err != nil {
			return nil, err
		}
		spans.end("scenario.open."+c.profile, 0, s)
	}
	if _, err := batchSetup(cells, spans); err != nil {
		return nil, err
	}
	m["scenario.open_ms.secured"] = median(spans.durations("scenario.open.secured")) / 1e6
	m["scenario.open_ms.unsecured"] = median(spans.durations("scenario.open.unsecured")) / 1e6
	m["scenario.batch_ms.secured"] = median(spans.durations("scenario.batch.secured")) / 1e6

	var sender, receiver *securechan.Channel
	m["pki.commission_ms"] = probe(spans, "pki.commission", 1, func() {
		sender, receiver, err = commission(probeSeed)
	}) / 1e6
	if err != nil {
		return nil, err
	}

	probeSpec, err := worksim.Lookup(probeScenario)
	if err != nil {
		return nil, err
	}
	probeSpec = probeSpec.WithProfile(worksim.Secured())
	cfg := probeSpec.Config(probeSeed)
	landing := geo.V(0.15*float64(cfg.Cols)*cfg.CellSizeM, 0.5*float64(cfg.Rows)*cfg.CellSizeM)
	harvest := geo.V(0.85*float64(cfg.Cols)*cfg.CellSizeM, 0.5*float64(cfg.Rows)*cfg.CellSizeM)
	var grid *geo.Grid
	m["geo.forest_ms"] = probe(spans, "geo.forest", 1, func() {
		grid, err = geo.NewGrid(cfg.Cols, cfg.Rows, cfg.CellSizeM)
		if err != nil {
			return
		}
		grid.CarveRoad(landing, harvest)
		grid.GenerateForest(rng.New(probeSeed).Derive("forest"), geo.ForestOptions{
			TreeDensity: cfg.TreeDensity, RockDensity: cfg.RockDensity,
			ClearRadius: 6 * cfg.CellSizeM, Clearings: []geo.Vec{landing, harvest},
		})
	}) / 1e6
	if err != nil {
		return nil, err
	}
	m["geo.findpath_us"] = probe(spans, "geo.findpath", 1, func() { _, err = grid.FindPath(landing, harvest) }) / 1e3
	if err != nil {
		return nil, err
	}

	// The probe session: the measured sessions stay untouched. It runs
	// probeRepeats times, each a fresh build of the same run; the mean tick
	// is the median over repeats, and the counts come from the last.
	const probeRepeats = 5
	var (
		sess  *worksite.Session
		ticks int
		means []float64
	)
	for r := 0; r < probeRepeats; r++ {
		if sess, _, err = scenario.Build(probeSpec, probeSeed, 10*time.Minute); err != nil {
			return nil, err
		}
		ticks = 0
		t0 := time.Now()
		for {
			if _, ok := sess.Step(); !ok {
				break
			}
			ticks++
		}
		means = append(means, float64(time.Since(t0))/float64(ticks))
	}
	tickNs := median(means)
	m["worksite.tick_ns"] = tickNs
	site := sess.Site()
	rs := site.Medium().Stats()
	drops := int64(0)
	for _, n := range rs.Drops {
		drops += n
	}
	m["radio.tx_per_tick"] = float64(rs.Transmissions) / float64(ticks)
	m["radio.delivered_frac"] = float64(rs.Deliveries) / float64(rs.Deliveries+drops)
	frames := int64(0)
	for _, id := range []radio.NodeID{worksite.NodeCoordinator, worksite.NodeForwarder, worksite.NodeHarvester, worksite.NodeDrone, worksite.NodeAttacker} {
		if ad := site.Adapter(id); ad != nil {
			frames += ad.Stats().FramesSent
		}
	}
	m["netsim.frames_per_tick"] = float64(frames) / float64(ticks)
	rep := sess.Report()
	alerts := 0
	for _, n := range rep.Alerts {
		alerts += n
	}
	m["ids.alerts_per_run"] = float64(alerts)
	m["fusion.false_alarm_frac"] = float64(rep.Metrics.FalseAlarms) / float64(max(rep.Metrics.TracksConfirmed, 1))
	if m["worksite.allocs_per_tick"], err = steadyAllocs(); err != nil {
		return nil, err
	}

	// One tick's inputs: the site's workers around the harvest point, seen
	// from a forwarder working there.
	wr := rng.New(probeSeed).Derive("probe-targets")
	targets := make([]sensors.Target, cfg.Workers)
	for i := range targets {
		targets[i] = sensors.Target{ID: fmt.Sprintf("worker-%d", i+1), Pos: harvest.Add(geo.V(wr.Range(-25, 25), wr.Range(-25, 25)))}
	}
	pos := harvest.Add(geo.V(-12, 4))
	sr := rng.New(probeSeed).Derive("probe-sensors")
	lidar, ultra := sensors.NewLidar(sr, site.Grid()), sensors.NewUltrasonic(sr)
	camera, aerial := site.ForwarderCamera(), site.DroneCamera()
	var dets []sensors.Detection
	scan := func() {
		dets = append(dets[:0], lidar.Scan(pos, targets, cfg.Weather)...)
		dets = append(dets, camera.Scan(pos, targets, cfg.Weather)...)
		dets = append(dets, ultra.Scan(pos, targets, cfg.Weather)...)
		if aerial != nil {
			dets = append(dets, aerial.Scan(pos.Add(geo.V(0, 30)), targets, cfg.Weather)...)
		}
	}
	m["sensors.scan_ns"] = probe(spans, "sensors.scan", 200, scan)
	gnss := site.ForwarderGNSS()
	m["sensors.gnss_ns"] = probe(spans, "sensors.gnss", 2000, func() { gnss.Sample(pos) })

	now := time.Duration(0)
	tracker := fusion.NewTracker(fusion.Options{ConfirmHits: cfg.ConfirmHits})
	m["fusion.update_ns"] = probe(spans, "fusion.update", 200, func() {
		now += cfg.TickPeriod
		tracker.Update(now, dets)
	})
	positions := tracker.AppendConfirmedPositions(nil, pos, 1e6)
	safety := machine.NewSafetyController(machine.New("probe", machine.KindForwarder, geo.Pose{Pos: pos}))
	m["machine.assess_ns"] = probe(spans, "machine.assess", 2000, func() {
		now += cfg.TickPeriod
		safety.Assess(now, positions)
	})
	uc := risk.BuildUseCase()
	assessor, err := risk.NewContinuousAssessor(&uc.Model, uc.FullControls())
	if err != nil {
		return nil, err
	}
	var register []risk.AssessedRisk
	m["risk.current_ns"] = probe(spans, "risk.current", 500, func() {
		now += time.Second
		register = assessor.CurrentInto(register, now)
	})

	record := make([]byte, 64)
	m["securechan.seal_ns"] = probe(spans, "securechan.seal", 1000, func() { _, err = sender.Seal(record) })
	if err != nil {
		return nil, err
	}
	if m["securechan.open_ns"], err = probeOpen(spans, sender, receiver, record); err != nil {
		return nil, err
	}
	m["radio.transmit_ns"] = probeTransmit(spans, site.Grid())
	engine := ids.DefaultEngine()
	m["ids.ingest_ns"] = probe(spans, "ids.ingest", 1000, func() {
		now += 50 * time.Millisecond
		engine.Ingest(ids.Event{Kind: ids.EventLinkSample, At: now, Source: "coordinator<->forwarder", OK: true, Value: 1})
	})

	// Per-tick call counts: the control loop scans, samples, fuses and
	// assesses once a tick; the drone downlink is sent every tick, the
	// heartbeat and status once a second, each sealed and opened once; the
	// IDS sees a link sample of each coordinator frame plus a GNSS verdict
	// per status; the risk register is recomputed once a second.
	oncePerSec := 1 / (float64(time.Second) / float64(cfg.TickPeriod))
	sends := 2 * oncePerSec
	if cfg.DroneEnabled {
		sends++
	}
	rows := []struct {
		name string
		mult float64
	}{
		{"sensors.scan_ns", 1}, {"sensors.gnss_ns", 1}, {"fusion.update_ns", 1}, {"machine.assess_ns", 1},
		{"risk.current_ns", oncePerSec}, {"securechan.seal_ns", sends}, {"securechan.open_ns", sends},
		{"radio.transmit_ns", m["radio.tx_per_tick"]}, {"ids.ingest_ns", 3 * oncePerSec},
	}
	sum := 0.0
	for _, r := range rows {
		sum += m[r.name] * r.mult
		note("%-20s %10.1f ns x %6.3f per tick = %10.1f ns", r.name, m[r.name], r.mult, m[r.name]*r.mult)
	}
	m["worksite.unattributed_frac"] = 1 - sum/tickNs
	note("%-20s %10.1f ns attributed of a %.1f ns tick (%s secured, %d ticks)", "sum", sum, tickNs, probeScenario, ticks)

	if err := probeCache(e, spans, m, rep); err != nil {
		return nil, err
	}
	if err := probeSweeps(e, spans, m); err != nil {
		return nil, err
	}
	if m["tracefmt.marshal_ns"], err = probeMarshal(spans, probeSpec); err != nil {
		return nil, err
	}
	if err := probeDaemon(e, out, cells, spans, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probe calls fn in probeSamples samples of batch calls, records a span per
// sample, and returns the median nanoseconds per call.
func probe(spans *spanLog, name string, batch int, fn func()) float64 {
	var per []float64
	for len(per) < probeSamples {
		s := spans.begin()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t0)
		spans.end(name, 0, s)
		per = append(per, float64(d)/float64(batch))
	}
	return median(per)
}

// commission builds a drone site's security as worksite does: CA keygen,
// one identity per node, and a handshake per commissioned pair. It returns
// the established coordinator-to-forwarder pair.
func commission(seed int64) (*securechan.Channel, *securechan.Channel, error) {
	r := rng.New(seed)
	ca, err := pki.NewCA("probe-site-ca", r.Derive("pki"))
	if err != nil {
		return nil, nil, err
	}
	nodes := []struct {
		id   string
		role pki.Role
	}{{"coordinator", pki.RoleCoordinator}, {"forwarder", pki.RoleMachine}, {"harvester", pki.RoleMachine}, {"drone", pki.RoleDrone}}
	idents := map[string]pki.Identity{}
	for _, n := range nodes {
		if idents[n.id], err = ca.Issue(n.id, n.role, 0, 30*24*time.Hour); err != nil {
			return nil, nil, err
		}
	}
	verifier := pki.NewVerifier(ca.Cert(), ca.CRL())
	hr := r.Derive("handshakes")
	var first [2]*securechan.Channel
	for i, p := range [][2]string{{"coordinator", "forwarder"}, {"coordinator", "harvester"}, {"coordinator", "drone"}, {"forwarder", "drone"}} {
		now := func() time.Duration { return 0 }
		init := securechan.NewInitiator(idents[p[0]], verifier, securechan.Options{Rand: hr.Derive(p[0] + ">" + p[1]), Now: now})
		resp := securechan.NewResponder(idents[p[1]], verifier, securechan.Options{Rand: hr.Derive(p[1] + "<" + p[0]), Now: now})
		m1, err := init.Start()
		if err != nil {
			return nil, nil, err
		}
		m2, err := resp.HandleHandshake(m1)
		if err != nil {
			return nil, nil, err
		}
		m3, err := init.HandleHandshake(m2)
		if err != nil {
			return nil, nil, err
		}
		if _, err := resp.HandleHandshake(m3); err != nil {
			return nil, nil, err
		}
		if i == 0 {
			first = [2]*securechan.Channel{init, resp}
		}
	}
	return first[0], first[1], nil
}

// probeOpen times Channel.Open on records sealed beforehand, in order, since
// the receiver rejects replays.
func probeOpen(spans *spanLog, sender, receiver *securechan.Channel, plain []byte) (float64, error) {
	const batch = 200
	var per []float64
	records := make([][]byte, batch)
	for len(per) < probeSamples {
		for i := range records {
			rec, err := sender.Seal(plain)
			if err != nil {
				return 0, err
			}
			records[i] = append(records[i][:0], rec...)
		}
		s := spans.begin()
		t0 := time.Now()
		for _, rec := range records {
			if _, err := receiver.Open(rec); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		spans.end("securechan.open", 0, s)
		per = append(per, float64(d)/batch)
	}
	return median(per), nil
}

// probeTransmit times Medium.Transmit of one frame between two nodes 20 m
// apart, plus running the scheduler until the frame is delivered.
func probeTransmit(spans *spanLog, grid *geo.Grid) float64 {
	sched := simclock.New()
	med := radio.NewMedium(sched, grid, rng.New(probeSeed).Derive("probe-radio"), radio.Config{})
	at := func(x, y float64) func() geo.Vec { return func() geo.Vec { return geo.V(x, y) } }
	delivered := 0
	med.AddNode(&radio.Node{ID: "a", Pos: at(40, 200), Channel: 1, TxPowerDBm: 23, Online: true})
	med.AddNode(&radio.Node{ID: "b", Pos: at(60, 200), Channel: 1, TxPowerDBm: 23, Online: true, Recv: func(radio.Packet) { delivered++ }})
	pkt := radio.Packet{From: "a", To: "b", Size: 160}
	return probe(spans, "radio.transmit", 500, func() {
		_ = med.Transmit(pkt)
		_ = sched.Run(sched.Now() + 10*time.Millisecond)
	})
}

// steadyAllocs steps a secured baseline session past warm-up and returns
// the heap allocations per tick over steady ticks: ticks on which, as on
// the tick before and after, no mission, safety, mode or alert transition
// happened. The collector is off meanwhile: a collection empties the
// record layer's buffer pools, and when one falls depends on what else the
// process holds, so with it on the count would not repeat.
func steadyAllocs() (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec, err := worksim.Lookup("baseline")
	if err != nil {
		return 0, err
	}
	sess, _, err := scenario.Build(spec.WithProfile(worksim.Secured()), probeSeed, 15*time.Minute)
	if err != nil {
		return 0, err
	}
	const warm, measured = 240, 960
	var (
		ms0, ms1 runtime.MemStats
		prev     event.Tick
		quiet    = make([]bool, warm+measured)
		allocs   = make([]uint64, warm+measured)
	)
	for i := range quiet {
		runtime.ReadMemStats(&ms0)
		t, ok := sess.Step()
		runtime.ReadMemStats(&ms1)
		if !ok {
			return 0, fmt.Errorf("allocation probe ended at tick %d", i)
		}
		allocs[i] = ms1.Mallocs - ms0.Mallocs
		quiet[i] = i > 0 && t.Mission == prev.Mission && t.Mode == prev.Mode && t.Unsafe == prev.Unsafe &&
			t.Colliding == prev.Colliding && t.Stopped == prev.Stopped && t.Alerts == prev.Alerts
		prev = t
	}
	total, counted := uint64(0), 0
	for i := warm; i+1 < len(quiet); i++ {
		if quiet[i-1] && quiet[i] && quiet[i+1] {
			total += allocs[i]
			counted++
		}
	}
	return float64(total) / float64(max(counted, 1)), nil
}

// probeCache times resultcache Put and Get of a real sweep run record.
func probeCache(e *env, spans *spanLog, m map[string]float64, rep worksite.Report) error {
	dir, err := cacheRoot("ladder")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	payload := struct {
		Metrics map[string]float64 `json:"metrics"`
	}{campaign.SweepMetrics(rep)}
	key := func(i int) resultcache.Key {
		return resultcache.Key{SpecHash: "probe", Profile: "secured", Seed: e.seed + int64(i), DurationNs: int64(sweepDuration), Engine: worksim.Version}
	}
	const n = 200
	var put, get []float64
	for i := 0; i < n; i++ {
		s := spans.begin()
		t0 := time.Now()
		if err := c.Put(key(i), payload); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0)))
		spans.end("resultcache.put", 0, s)
	}
	for i := 0; i < n; i++ {
		into := payload
		s := spans.begin()
		t0 := time.Now()
		hit, err := c.Get(key(i), &into)
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("result cache missed a stored key")
		}
		get = append(get, float64(time.Since(t0)))
		spans.end("resultcache.get", 0, s)
	}
	m["resultcache.put_us"] = median(put) / 1e3
	m["resultcache.get_us"] = median(get) / 1e3
	return nil
}

// probeSweeps runs a small sweep at Parallel=1 and at Parallel=nproc for the
// parallel efficiency, then cold and warm into one cache for the hit ratio.
func probeSweeps(e *env, spans *spanLog, m map[string]float64) error {
	dir, err := cacheRoot("ladder-sweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := worksim.SweepOptions{
		Scenarios: worksim.Catalog()[:4],
		Seeds:     worksim.SeedRange{Base: e.seed, Count: 4 * e.nproc},
		Duration:  time.Minute,
	}
	run := func(name string, parallel int, cache string) (time.Duration, worksim.SweepStatsView, error) {
		o := opts
		o.Parallel, o.CacheDir, o.Stats = parallel, cache, &worksim.SweepStats{}
		s := spans.begin()
		t0 := time.Now()
		_, err := worksim.Sweep(context.Background(), o)
		d := time.Since(t0)
		spans.end(name, 0, s)
		return d, o.Stats.View(), err
	}
	one, _, err := run("campaign.sweep.parallel1", 1, "")
	if err != nil {
		return err
	}
	all, _, err := run("campaign.sweep.parallelN", e.nproc, "")
	if err != nil {
		return err
	}
	m["campaign.parallel_efficiency"] = one.Seconds() / (float64(e.nproc) * all.Seconds())
	cache := filepath.Join(dir, "c")
	if _, _, err := run("campaign.sweep.cold", e.nproc, cache); err != nil {
		return err
	}
	_, st, err := run("campaign.sweep.warm", e.nproc, cache)
	if err != nil {
		return err
	}
	m["resultcache.hit_frac"] = float64(st.CacheHits) / float64(max(st.CacheHits+st.CacheMisses, 1))
	return nil
}

// probeMarshal times trace.Marshal over every event of one 2-min run and
// returns nanoseconds per event.
func probeMarshal(spans *spanLog, spec worksim.Scenario) (float64, error) {
	var evs []event.Event
	s, err := worksim.Open(spec, worksim.WithSeed(probeSeed), worksim.WithHorizon(daemonHorizon),
		worksim.WithObserver(trace.Observer(func(ev event.Event) { evs = append(evs, ev) })))
	if err != nil {
		return 0, err
	}
	if _, err := s.Run(context.Background()); err != nil {
		return 0, err
	}
	var merr error
	per := probe(spans, "tracefmt.marshal", 1, func() {
		for _, ev := range evs {
			if _, err := trace.Marshal(ev); err != nil {
				merr = err
			}
		}
	})
	return per / float64(len(evs)), merr
}

// probeDaemon offers four runs per catalog cell at daemonRate to a fresh
// in-process daemon, checks one report per cell against an in-process
// worksim.Open + Run, and derives the serving-layer metrics from its spans
// and counts.
func probeDaemon(e *env, out *outcome, cells []cell, spans *spanLog, m map[string]float64) error {
	d, err := startDaemon(e.nproc)
	if err != nil {
		return err
	}
	reqs := daemonRequests(cells, 4*len(cells), e.seed)
	before := heapMB()
	d.openLoop(reqs, daemonRate, e.nproc, spans)
	after := heapMB()
	if err := d.close(); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	var late []float64
	frames, ok := 0, 0
	for i, r := range reqs {
		late = append(late, ms(r.late))
		out.attempted++
		if r.err != nil {
			out.failf(1, "daemon %s/%s seed %d: %v", r.cell.scenario, r.cell.profile, r.seed, r.err)
			continue
		}
		ok++
		frames += r.frames
		if i < len(cells) {
			want, err := reference(r)
			if err != nil {
				return err
			}
			if !bytes.Equal(r.report, want) {
				out.failf(1, "daemon %s/%s seed %d: report differs from worksim.Open + Run", r.cell.scenario, r.cell.profile, r.seed)
			}
		}
	}
	m["loadgen.late_p90_ms"] = quantile(late, 0.90)
	m["serve.sse_frames_per_run"] = float64(frames) / float64(max(ok, 1))
	m["serve.rejected_frac"] = float64(len(reqs)-ok) / float64(len(reqs))
	m["serve.heap_kb_per_run"] = (after - before) * 1024 / float64(max(ok, 1))
	m["serve.submit_ms"] = median(spans.durations("serve.submit")) / 1e6
	m["serve.submit_p90_ms"] = quantile(spans.durations("serve.submit"), 0.90) / 1e6
	m["serve.stream_ms"] = median(spans.durations("serve.stream")) / 1e6
	m["serve.fetch_ms"] = median(spans.durations("serve.fetch")) / 1e6
	return nil
}
