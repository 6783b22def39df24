package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/worksim"
)

const (
	sweepSeeds    = 16
	sweepDuration = 4 * time.Minute
	// setupPasses is how often a sweep workload times the per-cell
	// commissioning that makes up its set-up, after one untimed pass that
	// warms the heap and the code.
	setupPasses = 15
)

// sweepPass runs one campaign.Sweep over the whole catalog and returns its
// JSON, its wall and CPU time, the completion time of every run since the
// sweep started (from OnRunDone) and the sweep's counters.
func sweepPass(e *env, cacheDir string, spans *spanLog) ([]byte, passTime, []float64, worksim.SweepStatsView, error) {
	var (
		mu   sync.Mutex
		done []float64
	)
	stats := &worksim.SweepStats{}
	root := spans.reserve("campaign.sweep")
	rootStart := spans.begin()
	c0, t0 := cpuTime(), time.Now()
	res, err := worksim.Sweep(context.Background(), worksim.SweepOptions{
		Seeds:    worksim.SeedRange{Base: e.seed, Count: sweepSeeds},
		Parallel: e.nproc,
		Duration: sweepDuration,
		CacheDir: cacheDir,
		Stats:    stats,
		OnRunDone: func() {
			d := time.Since(t0)
			s := spans.begin()
			spans.end("campaign.run_done", root, s)
			mu.Lock()
			done = append(done, ms(d))
			mu.Unlock()
		},
	})
	el := passTime{wall: time.Since(t0), cpu: cpuTime() - c0}
	spans.endAs(root, 0, rootStart)
	if err != nil {
		return nil, el, nil, worksim.SweepStatsView{}, fmt.Errorf("sweep: %w", err)
	}
	js, err := res.JSON()
	if err != nil {
		return nil, el, nil, worksim.SweepStatsView{}, fmt.Errorf("sweep JSON: %w", err)
	}
	return js, el, done, stats.View(), nil
}

type passTime struct{ wall, cpu time.Duration }

// batchSetup times scenario.NewBatch, the per-cell commissioning every
// sweep pays once per cell, over every catalog cell, setupPasses times, and
// returns the median per-cell CPU time in seconds.
func batchSetup(cells []cell, spans *spanLog) (float64, error) {
	var per []float64
	for pass := 0; pass <= setupPasses; pass++ {
		var total time.Duration
		for _, c := range cells {
			s := spans.begin()
			c0 := cpuTime()
			if _, err := scenario.NewBatch(c.spec); err != nil {
				return 0, fmt.Errorf("batch %s/%s: %w", c.scenario, c.profile, err)
			}
			total += cpuTime() - c0
			spans.end("scenario.batch."+c.profile, 0, s)
		}
		if pass > 0 {
			per = append(per, total.Seconds()/float64(len(cells)))
		}
	}
	return median(per), nil
}

func sweepRuns(cells []cell) int { return len(cells) * sweepSeeds }

// addSweepPass records one pass's numbers.
func addSweepPass(p passes, runs int, el passTime, done []float64) {
	p.add("runs_per_cpu_s", float64(runs)/el.cpu.Seconds())
	p.add("sim_s_per_cpu_s", float64(runs)*sweepDuration.Seconds()/el.cpu.Seconds())
	p.add("wall.runs_per_s", float64(runs)/el.wall.Seconds())
	p.add("wall.latency_p50_ms", quantile(done, 0.50))
	p.add("wall.latency_p90_ms", quantile(done, 0.90))
}

// runSweepCold repeats a cold sweep, each pass into a fresh result cache so
// every run simulates and is stored. Every pass at one seed base must give
// the same JSON.
func runSweepCold(e *env) (*outcome, error) {
	cells, err := catalogCells()
	if err != nil {
		return nil, err
	}
	root, err := cacheRoot("sweep-catalog")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	setup, err := batchSetup(cells, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var (
		first  []byte
		passNo int
	)
	phase := func(budget time.Duration, spans *spanLog) (map[string]float64, error) {
		p := passes{}
		start := time.Now()
		for time.Since(start) < budget {
			passNo++
			dir := filepath.Join(root, fmt.Sprintf("pass-%d", passNo))
			js, el, done, st, err := sweepPass(e, dir, spans)
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			runs := sweepRuns(cells)
			out.attempted += runs
			switch {
			case st.Executed != int64(runs):
				out.failf(runs-int(st.Executed), "cold pass simulated %d of %d runs", st.Executed, runs)
			case first == nil:
				first = js
			case !bytes.Equal(js, first):
				out.failf(runs, "cold sweep JSON differs between passes at seed base %d", e.seed)
			}
			addSweepPass(p, runs, el, done)
		}
		m := p.medians()
		m["setup_s"] = setup
		m["heap_mb"] = heapMB()
		out.notes = append(out.notes, fmt.Sprintf("sweep-catalog: %d cold passes of %d runs", len(p["runs_per_cpu_s"]), sweepRuns(cells)))
		return m, nil
	}
	if err := measure(e, out, phase); err != nil {
		return nil, err
	}
	return out, nil
}

// runSweepCached fills one result cache with a cold sweep, then repeats the
// same sweep warm: every run must be a cache hit and every warm JSON must be
// byte-identical to the cold one.
func runSweepCached(e *env) (*outcome, error) {
	cells, err := catalogCells()
	if err != nil {
		return nil, err
	}
	root, err := cacheRoot("sweep-cached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	setup, err := batchSetup(cells, nil)
	if err != nil {
		return nil, err
	}
	cold, _, _, _, err := sweepPass(e, root, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	phase := func(budget time.Duration, spans *spanLog) (map[string]float64, error) {
		p := passes{}
		start := time.Now()
		for time.Since(start) < budget {
			js, el, done, st, err := sweepPass(e, root, spans)
			if err != nil {
				return nil, err
			}
			runs := sweepRuns(cells)
			out.attempted += runs
			if st.CacheHits != int64(runs) {
				out.failf(runs-int(st.CacheHits), "warm pass served %d of %d runs from the cache", st.CacheHits, runs)
			} else if !bytes.Equal(js, cold) {
				out.failf(runs, "warm sweep JSON differs from the cold sweep")
			}
			addSweepPass(p, runs, el, done)
		}
		m := p.medians()
		m["setup_s"] = setup
		m["heap_mb"] = heapMB()
		out.notes = append(out.notes, fmt.Sprintf("sweep-cached: %d warm passes of %d runs", len(p["runs_per_cpu_s"]), sweepRuns(cells)))
		return m, nil
	}
	if err := measure(e, out, phase); err != nil {
		return nil, err
	}
	return out, nil
}

// cacheRoot returns an empty directory for a workload's result caches.
func cacheRoot(name string) (string, error) {
	dir := filepath.Join(outDir, "cache", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
