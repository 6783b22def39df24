package main

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/worksim"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// passes is the per-pass record a workload keeps: each end-to-end metric is
// computed once per pass and reported as the median over passes, so one
// slow pass on a shared host does not move the result.
type passes map[string][]float64

func (p passes) add(name string, v float64) { p[name] = append(p[name], v) }

func (p passes) medians() map[string]float64 {
	out := make(map[string]float64, len(p))
	for k, v := range p {
		out[k] = median(v)
	}
	return out
}

// measure runs phase for the whole budget untraced, or, on a traced run,
// for half the budget untraced and half traced, so the two halves give the
// tracing overhead. It then runs the layer ladder on a traced run. A phase
// reports its wall-clock numbers under "wall." names; they are per-layer
// metrics of the traced run, beside the host's steal share.
func measure(e *env, out *outcome, phase func(budget time.Duration, spans *spanLog) (map[string]float64, error)) error {
	run := func(budget time.Duration, spans *spanLog) (map[string]float64, map[string]float64, error) {
		steal0, t0 := stealSeconds(), time.Now()
		m, err := phase(budget, spans)
		if err != nil {
			return nil, nil, err
		}
		wall := map[string]float64{"host.steal_frac": (stealSeconds() - steal0) / (time.Since(t0).Seconds() * float64(e.nproc))}
		for k, v := range m {
			if strings.HasPrefix(k, "wall.") {
				wall[k] = v
				delete(m, k)
			}
		}
		return m, wall, nil
	}
	if !e.traced {
		m, _, err := run(e.seconds, nil)
		out.e2e = m
		return err
	}
	m, wall, err := run(e.seconds/2, nil)
	if err != nil {
		return err
	}
	out.e2e = m
	if out.traced, _, err = run(e.seconds/2, e.spans); err != nil {
		return err
	}
	if out.layer, err = runLadder(e, out); err != nil {
		return err
	}
	for k, v := range wall {
		out.layer[k] = v
	}
	return nil
}

// cpuTime returns the CPU time the process has used, user plus system. The
// end-to-end rates divide by it rather than by wall time: on a shared host
// the hypervisor runs other guests on this guest's CPUs (steal), which moves
// wall-clock rates by 20-30% from one run to the next and CPU time by a few
// percent.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's CPUs since boot, or 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cell is one (scenario, profile) pair of the catalog.
type cell struct {
	scenario, profile string
	spec              worksim.Scenario // profile applied
	prof              worksim.SecurityProfile
}

// catalogCells returns every catalog scenario under both profiles, in the
// sweep's scenario-major order.
func catalogCells() ([]cell, error) {
	var out []cell
	for _, name := range worksim.Catalog() {
		spec, err := worksim.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, pn := range worksim.Profiles() {
			prof, err := worksim.ResolveProfile(pn)
			if err != nil {
				return nil, err
			}
			out = append(out, cell{scenario: name, profile: pn, spec: spec.WithProfile(prof), prof: prof})
		}
	}
	return out, nil
}

// cellSeeds derives one simulation seed per cell from the workload seed.
func cellSeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(1 << 40)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
