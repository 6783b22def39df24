package ids

import (
	"testing"
	"time"
)

// TestDetectZeroAllocs locks the full default detector suite at zero heap
// allocations per steady-state tick of benign telemetry, mirroring the
// worksite tick-loop lock. The event mix covers every detector's hot path —
// link EWMA updates, GNSS streak tracking, the de-auth sliding window — while
// staying below every alert threshold, because alert construction is a
// discrete transition and deliberately out of scope.
func TestDetectZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	engine := DefaultEngine()
	const period = 500 * time.Millisecond
	tickNo := 0
	tick := func() {
		at := time.Duration(tickNo) * period
		tickNo++
		engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "harvester-1", OK: true, Value: 1})
		engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "forwarder-1", OK: true, Value: 1})
		engine.Ingest(Event{Kind: EventGNSSVerdict, At: at, Source: "harvester-1", OK: true})
		// One de-auth every six ticks (3s) keeps at most four events inside
		// the 10s flood window — exercising the window trim without crossing
		// the five-event alert threshold. (The window is closed: an event
		// exactly 10s old still counts, so every five ticks would alert.)
		if tickNo%6 == 0 {
			engine.Ingest(Event{Kind: EventDeauth, At: at, Source: "ap-1", OK: true})
		}
	}

	// Warm per-source detector state (EWMA maps, de-auth window) to
	// steady-state capacity.
	for i := 0; i < 64; i++ {
		tick()
	}
	// One run over 200 ticks: AllocsPerRun truncates its per-run mean to an
	// integer, which would hide an allocation on the one-in-five de-auth
	// ticks.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			tick()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state detection allocates: %v allocs in 200 ticks, want 0", allocs)
	}
}
