package securechan

import (
	"testing"
)

// TestSealOpenZeroAllocs locks the pooled record layer at zero heap
// allocations per steady-state Seal and per steady-state Open, mirroring the
// worksite tick-loop lock: a regression fails `go test` instead of waiting
// for someone to read the securechan-seal/open benchmarks.
func TestSealOpenZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	p := handshakePair(t, Options{})
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Warm both pooled record buffers to steady-state capacity.
	rec, err := p.init.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.resp.Open(rec); err != nil {
		t.Fatal(err)
	}

	// Every iteration seals one record, and the paired receiver opens it
	// inside the same iteration so both directions are locked together. The
	// record is consumed before the next Seal overwrites the pooled buffer.
	// The 100 iterations are one run: AllocsPerRun truncates its per-run
	// mean to an integer, which would hide an allocation made on fewer than
	// every record.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			rec, err := p.init.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.resp.Open(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Seal+Open allocates: %v allocs in 100 records, want 0", allocs)
	}
}
