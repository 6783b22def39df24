//go:build race

package sensors

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, so allocation-count assertions skip under it.
const raceEnabled = true
