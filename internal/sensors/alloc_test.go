package sensors

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// TestCameraScanZeroAllocs locks a camera scan at zero heap allocations,
// clutter false positives included. The worksite tick locks cover scanning
// too, but clutter fires on 1% of scans, so their measured windows rarely
// contain one; here every scan produces a clutter detection next to the
// detected targets.
func TestCameraScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	c := NewCamera(rng.New(7), testGrid(t))
	c.FalsePositiveRate = 1
	targets := []Target{{ID: "w1", Pos: geo.V(60, 50)}, {ID: "w2", Pos: geo.V(45, 55)}}
	from := geo.V(50, 50)

	// Warm the scratch buffer to its high-water mark: every target detected
	// plus the clutter detection.
	for len(c.Scan(from, targets, Clear())) < len(targets)+1 {
	}
	clutter := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			for _, d := range c.Scan(from, targets, Clear()) {
				if d.FalsePositive {
					clutter++
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state camera scan allocates: %v allocs in 100 scans, want 0", allocs)
	}
	if clutter != 200 { // 100 scans in the warm-up run, 100 measured
		t.Fatalf("clutter detections = %d, want one per scan (200)", clutter)
	}
}
