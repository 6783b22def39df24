package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/worksim"
	"repro/worksim/trace"
)

const (
	sessionHorizon = time.Hour
	// The golden's settings: worksim's identity test captures every catalog
	// cell at the default seed over two simulated minutes.
	goldenPath    = "worksim/testdata/catalog_identity.golden.json"
	goldenHorizon = 2 * time.Minute
)

// runSessionLong opens every catalog cell with worksim.Open, as worksite-sim
// and worksimd do, and steps it to a 1h horizon, timing each Step. One pass
// covers all 32 cells at the same seeds, so passes repeat the same work and
// the same report bytes.
func runSessionLong(e *env) (*outcome, error) {
	cells, err := catalogCells()
	if err != nil {
		return nil, err
	}
	seeds := cellSeeds(e.seed, len(cells))
	out := &outcome{}
	reports := make([]string, len(cells))
	lat := make([]float64, 0, len(cells)*7300)

	phase := func(budget time.Duration, spans *spanLog) (map[string]float64, error) {
		p := passes{}
		start := time.Now()
		for time.Since(start) < budget {
			lat = lat[:0]
			var openCPU, stepCPU, stepWall time.Duration
			for i, c := range cells {
				root := spans.reserve("session")
				rootStart := spans.begin()
				c0 := cpuTime()
				sess, err := worksim.Open(c.spec, worksim.WithSeed(seeds[i]),
					worksim.WithHorizon(sessionHorizon), worksim.WithProfile(c.prof))
				c1 := cpuTime()
				spans.end("scenario.open."+c.profile, root, rootStart)
				if err != nil {
					return nil, fmt.Errorf("open %s/%s: %w", c.scenario, c.profile, err)
				}
				openCPU += c1 - c0
				for {
					s0 := spans.begin()
					t := time.Now()
					_, ok := sess.Step()
					d := time.Since(t)
					if !ok {
						break
					}
					spans.end("worksim.step", root, s0)
					stepWall += d
					lat = append(lat, ms(d))
				}
				stepCPU += cpuTime() - c1
				spans.endAs(root, 0, rootStart)
				out.attempted++
				if err := sess.Err(); err != nil {
					out.failf(1, "%s/%s seed %d stopped: %v", c.scenario, c.profile, seeds[i], err)
					continue
				}
				digest, err := reportDigest(sess.Report())
				if err != nil {
					return nil, err
				}
				if reports[i] == "" {
					reports[i] = digest
				} else if reports[i] != digest {
					out.failf(1, "%s/%s seed %d: report bytes differ between passes", c.scenario, c.profile, seeds[i])
				}
			}
			p.add("setup_s", openCPU.Seconds()/float64(len(cells)))
			p.add("runs_per_cpu_s", float64(len(cells))/stepCPU.Seconds())
			p.add("sim_s_per_cpu_s", float64(len(cells))*sessionHorizon.Seconds()/stepCPU.Seconds())
			p.add("wall.runs_per_s", float64(len(cells))/stepWall.Seconds())
			p.add("wall.latency_p50_ms", quantile(lat, 0.50))
			p.add("wall.latency_p90_ms", quantile(lat, 0.90))
		}
		m := p.medians()
		m["heap_mb"] = heapMB()
		out.notes = append(out.notes, fmt.Sprintf("session-long: %d passes, %d ticks per pass, runs_per_cpu_s by pass %.3f", len(p["setup_s"]), len(lat), p["runs_per_cpu_s"]))
		return m, nil
	}
	if err := measure(e, out, phase); err != nil {
		return nil, err
	}
	if err := checkGolden(cells, out); err != nil {
		return nil, err
	}
	return out, nil
}

func reportDigest(rep worksim.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkGolden recomputes the report-plus-trace digest of every catalog cell
// at the golden's settings and compares it with the checked-in golden,
// which it only reads.
func checkGolden(cells []cell, out *outcome) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parse golden: %w", err)
	}
	if len(want) != len(cells) {
		out.failf(len(cells), "golden has %d cells, catalog has %d", len(want), len(cells))
	}
	for _, c := range cells {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		s, err := worksim.Open(c.spec, worksim.WithSeed(worksim.DefaultSeed),
			worksim.WithHorizon(goldenHorizon), worksim.WithProfile(c.prof), worksim.WithObserver(w.Observer()))
		out.attempted++
		if err != nil {
			out.failf(1, "golden %s/%s: %v", c.scenario, c.profile, err)
			continue
		}
		rep, err := s.Run(context.Background())
		if err == nil {
			err = w.Flush()
		}
		var repJSON []byte
		if err == nil {
			repJSON, err = json.Marshal(rep)
		}
		if err != nil {
			out.failf(1, "golden %s/%s: %v", c.scenario, c.profile, err)
			continue
		}
		h := sha256.New()
		h.Write(repJSON)
		h.Write(buf.Bytes())
		key := c.scenario + "/" + c.profile
		if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
			out.failf(1, "golden %s: digest %s, want %s", key, got, want[key])
		}
	}
	return nil
}
