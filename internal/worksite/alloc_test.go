package worksite

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// assertZeroAllocTicks locks the tick loop for cfg at zero heap allocations
// per steady-state control tick, so an allocation regression fails `go test`
// rather than waiting for someone to read a benchmark.
//
// "Steady state" excludes ticks with discrete transitions: mission phase
// changes replan the route (A* allocates its search state), safety/mode
// transitions append to the operational timeline, and alert transitions
// build their detail strings. Those are event-driven, bounded per run, and
// deliberately out of scope — the invariant is that the per-tick work
// (worker movement, drone orbit + detection downlink over the radio, sensing,
// fusion, protective fields, navigation, scoring, event fan-out, and under
// the secured profile the record layer, IDS suite and live risk register)
// allocates nothing. The helper therefore scouts the deterministic run for a
// window of transition-free ticks and measures there.
//
// The window is measured as one run: testing.AllocsPerRun truncates its
// per-run mean to an integer, so counting per tick would hide anything that
// allocates on fewer than every tick — the 1 Hz housekeeping, occasional
// detections. On failure the window is replayed with every allocation
// sampled and the message names the allocating file:line frames.
func assertZeroAllocTicks(t *testing.T, cfg Config) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	const (
		warmTicks    = 240 // two simulated minutes: buffers reach high water
		measureTicks = 50
	)

	// Scout pass: the run is deterministic, so a first session tells us
	// which ticks carry transitions. A tick is "quiet" when nothing about
	// the mission/safety/mode state changed from the previous tick.
	scout, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const scoutTicks = warmTicks + 4000
	quiet := make([]bool, scoutTicks+1)
	var prev TickSnapshot
	for i := 1; i <= scoutTicks; i++ {
		tick, ok := scout.Step()
		if !ok {
			t.Fatalf("scout session ended at tick %d", i)
		}
		quiet[i] = i > 1 &&
			tick.Mission == prev.Mission &&
			tick.Mode == prev.Mode &&
			tick.Unsafe == prev.Unsafe &&
			tick.Colliding == prev.Colliding &&
			tick.Stopped == prev.Stopped &&
			tick.Alerts == prev.Alerts
		prev = tick
	}

	// Find the first fully quiet window after warm-up. AllocsPerRun runs the
	// window once more as warm-up, and we pad one tick on each side so a
	// transition adjacent to the window cannot bleed into it.
	const quietTicks = 2*measureTicks + 2
	start := -1
	for s := warmTicks; s+quietTicks <= scoutTicks; s++ {
		ok := true
		for i := s; i < s+quietTicks; i++ {
			if !quiet[i] {
				ok = false
				break
			}
		}
		if ok {
			start = s
			break
		}
	}
	if start < 0 {
		t.Fatalf("no transition-free window of %d ticks found in %d scouted ticks", quietTicks, scoutTicks)
	}

	// Measurement pass on a fresh, byte-identical session.
	se := sessionBefore(t, cfg, start)
	window := func() {
		for i := 0; i < measureTicks; i++ {
			if _, ok := se.Step(); !ok {
				t.Fatal("session ended mid-measurement")
			}
		}
	}
	allocs := testing.AllocsPerRun(1, window)
	if allocs != 0 {
		// Replay the same warm-up and measured window on another fresh
		// session, this time sampling every allocation.
		se = sessionBefore(t, cfg, start)
		window()
		t.Fatalf("steady-state control ticks allocate: %v allocs in ticks %d..%d, want 0; top allocating frames:%s",
			allocs, start+measureTicks, start+2*measureTicks-1, allocSites(window))
	}
}

// sessionBefore returns a fresh session for cfg stepped to just before tick.
func sessionBefore(t *testing.T, cfg Config, tick int) *Session {
	t.Helper()
	se, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tick; i++ {
		if _, ok := se.Step(); !ok {
			t.Fatalf("session ended at tick %d", i)
		}
	}
	return se
}

// allocSites runs f with runtime.MemProfileRate = 1, so every allocation is
// sampled, and lists the frames that allocated most: the first frame of
// each allocating stack outside the runtime, skipping stacks that start in
// test code (the profiling itself allocates). The garbage collections that
// publish the profile also drain sync.Pools, so a few pool refills can rank
// below the real culprits. The previous rate is restored before returning.
func allocSites(f func()) string {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()
	before := memProfile()
	f()
	after := memProfile()

	counts := make(map[string]int64)
	for stk, n := range after {
		if n -= before[stk]; n > 0 {
			if site := allocSite(stk); site != "" {
				counts[site] += n
			}
		}
	}
	sites := make([]string, 0, len(counts))
	for site := range counts {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool {
		if counts[sites[i]] != counts[sites[j]] {
			return counts[sites[i]] > counts[sites[j]]
		}
		return sites[i] < sites[j]
	})
	if len(sites) > 5 {
		sites = sites[:5]
	}
	var b strings.Builder
	for _, site := range sites {
		fmt.Fprintf(&b, "\n\t%d x %s", counts[site], site)
	}
	return b.String()
}

// memProfile returns the cumulative allocation count per stack as of a
// fresh garbage collection, which publishes every allocation made so far.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 64)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// allocSite names the first non-runtime frame of an allocation stack as
// "pkg/file.go:line (function)", or "" when that frame is test code.
func allocSite(stk [32]uintptr) string {
	var pcs []uintptr
	for _, pc := range stk {
		if pc == 0 {
			break
		}
		pcs = append(pcs, pc)
	}
	frames := runtime.CallersFrames(pcs)
	for {
		fr, more := frames.Next()
		if !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "internal/runtime/") {
			if strings.HasSuffix(fr.File, "_test.go") {
				return ""
			}
			file := filepath.Join(filepath.Base(filepath.Dir(fr.File)), filepath.Base(fr.File))
			return fmt.Sprintf("%s:%d (%s)", file, fr.Line, fr.Function)
		}
		if !more {
			return ""
		}
	}
}

// TestTickLoopZeroAllocs locks the unsecured E1 baseline tick at zero heap
// allocations per steady-state tick.
func TestTickLoopZeroAllocs(t *testing.T) {
	assertZeroAllocTicks(t, DefaultConfig(42)) // the E1 baseline: unsecured, drone on
}

// TestSecuredTickZeroAllocs locks the full secured profile — record-layer
// crypto on every message, the IDS detector suite on every packet, the 1Hz
// live risk register — at the same zero-allocation bar as the baseline.
func TestSecuredTickZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Profile = Secured()
	assertZeroAllocTicks(t, cfg)
}
