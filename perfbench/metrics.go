package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one named number a run reports. Every workload reports every
// end-to-end metric on an untraced run and every per-layer metric on a
// traced run, so the lists below are also what BENCHMARK.json names.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// meaning says how each workload measures the metric.
	meaning string
	// moves, notMoves name the end-to-end metrics (metric @ workload) a
	// change in this layer metric should and should not move. Later
	// changes cite these rows by metric name.
	moves, notMoves string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"session-long", "one goroutine steps every catalog scenario x profile to a 1h horizon: tick layers do the work, the only workload where per-tick latency shows", runSessionLong},
	{"sweep-catalog", "cold campaign.Sweep of 16 scenarios x 2 profiles x 16 seeds at nproc: pool, cell barriers, per-seed build and cache writes dominate", runSweepCold},
	{"sweep-cached", "the same sweep served warm from its result cache: cache reads and per-cell NewBatch commissioning dominate, the simulation is bypassed", runSweepCached},
}

// The end-to-end rates and set-up divide by process CPU time (cpuTime), so
// host steal does not move them; the wall-clock numbers of the same runs are
// per-layer metrics, reported with the host's steal share.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		meaning: "CPU time to commission one (scenario, profile) cell through the workload's entry point (worksim.Open; scenario.NewBatch), mean over the catalog, median over several passes"},
	{name: "runs_per_cpu_s", unit: "runs/cpu-s", better: "higher", bound: 0.2,
		meaning: "runs completed per CPU second of the process: 1h sessions stepped (commissioning excluded), cold or cached sweep runs; median over passes"},
	{name: "sim_s_per_cpu_s", unit: "sim-s/cpu-s", better: "higher", bound: 0.2,
		meaning: "simulated seconds completed per CPU second of the process; median over passes"},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.15,
		meaning: "live heap after runtime.GC at the end of the measured phase"},
}

var perLayer = []metric{
	{name: "scenario.open_ms.secured", unit: "ms", better: "lower", meaning: "p50 of the Open span, secured profile",
		moves: "setup_s @ session-long; serve.submit_ms", notMoves: "runs_per_cpu_s @ sweep-catalog"},
	{name: "scenario.open_ms.unsecured", unit: "ms", better: "lower", meaning: "p50 of the Open span, unsecured profile",
		moves: "setup_s @ session-long; serve.submit_ms", notMoves: "runs_per_cpu_s @ sweep-catalog"},
	{name: "scenario.batch_ms.secured", unit: "ms", better: "lower", meaning: "p50 of the scenario.NewBatch span, secured cells",
		moves: "runs_per_cpu_s @ sweep-cached, setup_s @ sweep-catalog", notMoves: "runs_per_cpu_s @ session-long"},
	{name: "pki.commission_ms", unit: "ms", better: "lower", meaning: "CA keygen + issue + pairwise handshakes of a drone site via pki/securechan",
		moves: "setup_s on every workload (secured half); runs_per_cpu_s @ sweep-cached; serve.submit_ms", notMoves: "runs_per_cpu_s @ session-long"},
	{name: "geo.forest_ms", unit: "ms", better: "lower", meaning: "geo.NewGrid + CarveRoad + GenerateForest at the catalog site size",
		moves: "setup_s @ session-long; runs_per_cpu_s @ sweep-catalog (the forest is generated per seed)", notMoves: "runs_per_cpu_s @ session-long"},
	{name: "geo.findpath_us", unit: "us", better: "lower", meaning: "Grid.FindPath landing to harvest on a generated forest",
		moves: "setup_s @ session-long; runs_per_cpu_s @ sweep-catalog (a route is planned per haul)", notMoves: "runs_per_cpu_s @ session-long"},
	{name: "sensors.scan_ns", unit: "ns", better: "lower", meaning: "lidar + camera + ultrasonic + aerial Scan of one tick's targets",
		moves: "runs_per_cpu_s @ session-long and @ sweep-catalog; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "sensors.gnss_ns", unit: "ns", better: "lower", meaning: "GNSS.Sample",
		moves: "runs_per_cpu_s @ session-long and @ sweep-catalog; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "fusion.update_ns", unit: "ns", better: "lower", meaning: "Tracker.Update with one tick's detections",
		moves: "runs_per_cpu_s @ session-long and @ sweep-catalog; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "machine.assess_ns", unit: "ns", better: "lower", meaning: "SafetyController.Assess of the confirmed positions",
		moves: "runs_per_cpu_s @ session-long and @ sweep-catalog; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "risk.current_ns", unit: "ns", better: "lower", meaning: "ContinuousAssessor.CurrentInto of the use-case register",
		moves: "runs_per_cpu_s @ session-long and @ sweep-catalog; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "securechan.seal_ns", unit: "ns", better: "lower", meaning: "Channel.Seal of a 64-byte record",
		moves: "runs_per_cpu_s @ session-long (secured sessions)", notMoves: "unsecured sessions"},
	{name: "securechan.open_ns", unit: "ns", better: "lower", meaning: "Channel.Open of a 64-byte record",
		moves: "runs_per_cpu_s @ session-long (secured sessions)", notMoves: "unsecured sessions"},
	{name: "radio.transmit_ns", unit: "ns", better: "lower", meaning: "Medium.Transmit of one frame plus draining its delivery",
		moves: "runs_per_cpu_s @ session-long; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "ids.ingest_ns", unit: "ns", better: "lower", meaning: "Engine.Ingest of one link-sample event",
		moves: "wall.latency_p90_ms @ session-long (secured, attacks)", notMoves: "unsecured sessions"},
	{name: "radio.tx_per_tick", unit: "1/tick", better: "lower", meaning: "Medium.Stats transmissions per tick of the probe session (exact)",
		moves: "explains moves in the timed rows", notMoves: "must repeat exactly on an unchanged tree"},
	{name: "radio.delivered_frac", unit: "ratio", better: "higher", meaning: "Medium.Stats deliveries / (deliveries + drops) of the probe session (exact)",
		moves: "explains moves in the timed rows", notMoves: "must repeat exactly on an unchanged tree"},
	{name: "netsim.frames_per_tick", unit: "1/tick", better: "lower", meaning: "sum of Adapter.Stats frames sent per tick of the probe session (exact)",
		moves: "explains moves in the timed rows", notMoves: "must repeat exactly on an unchanged tree"},
	{name: "ids.alerts_per_run", unit: "1/run", better: "higher", meaning: "IDS alerts in the probe session's report (exact)",
		moves: "explains moves in the timed rows", notMoves: "must repeat exactly on an unchanged tree"},
	{name: "fusion.false_alarm_frac", unit: "ratio", better: "lower", meaning: "report FalseAlarms / TracksConfirmed of the probe session (exact)",
		moves: "explains moves in the timed rows", notMoves: "must repeat exactly on an unchanged tree"},
	{name: "worksite.allocs_per_tick", unit: "1/tick", better: "lower", meaning: "runtime Mallocs delta / ticks over steady ticks of a secured baseline session, collector off",
		moves: "wall.latency_p90_ms (via GC), heap_mb", notMoves: "must read 0 on steady ticks"},
	{name: "worksite.tick_ns", unit: "ns", better: "lower", meaning: "mean Step of the probe session, median over five builds of it; the base of worksite.unattributed_frac",
		moves: "runs_per_cpu_s @ session-long; wall.latency_p50_ms", notMoves: "setup_s"},
	{name: "worksite.unattributed_frac", unit: "ratio", better: "lower", meaning: "1 - sum(layer ns x per-tick calls) / worksite.tick_ns: wire encode/decode and event publishing",
		moves: "runs_per_cpu_s @ session-long (ROADMAP 2a)", notMoves: "-"},
	{name: "campaign.parallel_efficiency", unit: "ratio", better: "higher", meaning: "sweep runs/s at Parallel=nproc / (nproc x runs/s at Parallel=1)",
		moves: "runs_per_cpu_s @ sweep-catalog (ROADMAP 2c)", notMoves: "session-long, sweep-cached"},
	{name: "resultcache.put_us", unit: "us", better: "lower", meaning: "Cache.Put of a real sweep run record",
		moves: "runs_per_cpu_s @ sweep-catalog", notMoves: "session-long"},
	{name: "resultcache.get_us", unit: "us", better: "lower", meaning: "Cache.Get of a real sweep run record",
		moves: "runs_per_cpu_s @ sweep-cached", notMoves: "session-long"},
	{name: "resultcache.hit_frac", unit: "ratio", better: "higher", meaning: "SweepStats hits / (hits + misses) of a warm sweep; must be 1",
		moves: "runs_per_cpu_s @ sweep-cached", notMoves: "session-long"},
	{name: "serve.submit_ms", unit: "ms", better: "lower", meaning: "p50 of the POST /v1/runs span (synchronous commissioning)",
		moves: "worksimd run latency (no workload measures it end to end)", notMoves: "every workload"},
	{name: "serve.submit_p90_ms", unit: "ms", better: "lower", meaning: "p90 of the POST /v1/runs span (128 requests, twelve beyond it)",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "serve.stream_ms", unit: "ms", better: "lower", meaning: "p50 of the SSE span, open to the end frame",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "serve.fetch_ms", unit: "ms", better: "lower", meaning: "p50 of the GET /v1/runs/{id} span",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "serve.sse_frames_per_run", unit: "1/run", better: "lower", meaning: "SSE event frames per run seen by the client (exact)",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "serve.rejected_frac", unit: "ratio", better: "lower", meaning: "non-2xx responses / requests",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "serve.heap_kb_per_run", unit: "KB/run", better: "lower", meaning: "live heap growth / completed runs of the daemon (ROADMAP 3 retention)",
		moves: "worksimd run latency and memory (no workload measures them end to end)", notMoves: "every workload"},
	{name: "tracefmt.marshal_ns", unit: "ns", better: "lower", meaning: "worksim/trace.Marshal per event over one 2-min run's events",
		moves: "worksimd run latency (every event is encoded for SSE)", notMoves: "every workload"},
	{name: "loadgen.late_p90_ms", unit: "ms", better: "lower", meaning: "daemon probe generator wake-up minus due time, p90; the serve.* spans time the calls themselves, so lateness does not enter them",
		moves: "context for the serve.* rows", notMoves: "-"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", meaning: "untraced / traced runs_per_cpu_s - 1 of the workload itself",
		moves: "validity of the run", notMoves: "-"},
	{name: "wall.runs_per_s", unit: "runs/s", better: "higher", meaning: "runs completed per wall second, median over the untraced half's passes; shows idle workers that CPU time hides",
		moves: "campaign.parallel_efficiency (ROADMAP 2c)", notMoves: "moves with host.steal_frac"},
	{name: "wall.latency_p50_ms", unit: "ms", better: "lower", meaning: "median wall latency of one Session.Step, or sweep start to a run's OnRunDone, per pass, median over passes",
		moves: "per-tick cost @ session-long", notMoves: "moves with host.steal_frac"},
	{name: "wall.latency_p90_ms", unit: "ms", better: "lower", meaning: "90th percentile of the same latency per pass, median over passes",
		moves: "GC and transition ticks @ session-long", notMoves: "moves with host.steal_frac"},
	{name: "host.steal_frac", unit: "ratio", better: "lower", meaning: "share of this machine's CPU time the hypervisor gave to other guests during the untraced half (/proc/stat steal)",
		moves: "every wall.* metric", notMoves: "the CPU-time end-to-end metrics"},
}

// catalog returns the metrics a run in the given mode reports.
func catalog(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// checkEmitted reports an error unless got holds exactly the metrics the
// catalog names for the mode, so no workload can drift from BENCHMARK.json.
func checkEmitted(got map[string]float64, traced bool) error {
	want := catalog(traced)
	var missing, extra []string
	for _, m := range want {
		if _, ok := got[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	for name := range got {
		found := false
		for _, m := range want {
			found = found || m.name == name
		}
		if !found {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("emitted metrics drift from the catalog: missing %v, extra %v", missing, extra)
	}
	return nil
}

// printList writes every metric with its unit, direction, the workloads
// that emit it and, for layer metrics, which end-to-end metrics it should
// and should not move.
func printList(w io.Writer) {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	all := strings.Join(names, ",")
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-8s %-6s bound %.2f  [%s]  %s\n", m.name, m.unit, m.better, m.bound, all, m.meaning)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %-7s %-6s [%s]  %s\n      should move: %s; should not move: %s\n",
			m.name, m.unit, m.better, all, m.meaning, m.moves, m.notMoves)
	}
}
