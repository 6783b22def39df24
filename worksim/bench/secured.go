package bench

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/pki"
	"repro/internal/rng"
	"repro/internal/securechan"
)

// securedCatalog returns the secured-path micro-benchmarks: the record-layer
// and IDS costs that dominate the secured profile's per-tick overhead, the
// wall-clock view of the paths the securechan and ids AllocsPerRun locks
// hold at zero allocations.
func securedCatalog() []Benchmark {
	return []Benchmark{
		{
			Name: "securechan-seal",
			Doc:  "seal one 64-byte record on an established secure channel",
			Fn:   benchSeal,
		},
		{
			Name: "securechan-open",
			Doc:  "open (authenticate + decrypt) one 64-byte record",
			Fn:   benchOpen,
		},
		{
			Name: "ids-detect",
			Doc:  "one IDS tick: four per-tick events through the full detector suite",
			Fn:   benchIDSDetect,
		},
	}
}

// pairedChannels commissions a CA, two identities and a completed handshake,
// all from deterministic randomness, and returns the established endpoints.
func pairedChannels(b *testing.B) (*securechan.Channel, *securechan.Channel) {
	b.Helper()
	r := rng.New(42)
	ca, err := pki.NewCA("bench-ca", r.Derive("ca"))
	if err != nil {
		b.Fatal(err)
	}
	year := 365 * 24 * time.Hour
	alice, err := ca.Issue("alice", pki.RoleMachine, 0, year)
	if err != nil {
		b.Fatal(err)
	}
	bob, err := ca.Issue("bob", pki.RoleCoordinator, 0, year)
	if err != nil {
		b.Fatal(err)
	}
	verifier := pki.NewVerifier(ca.Cert(), nil)
	init := securechan.NewInitiator(alice, verifier, securechan.Options{Rand: r.Derive("init")})
	resp := securechan.NewResponder(bob, verifier, securechan.Options{Rand: r.Derive("resp")})

	msg, err := init.Start()
	if err != nil {
		b.Fatal(err)
	}
	for msg != nil {
		reply, err := resp.HandleHandshake(msg)
		if err != nil {
			b.Fatal(err)
		}
		if reply == nil {
			break
		}
		msg, err = init.HandleHandshake(reply)
		if err != nil {
			b.Fatal(err)
		}
		if msg != nil {
			if _, err := resp.HandleHandshake(msg); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	if !init.Established() || !resp.Established() {
		b.Fatal("handshake did not establish both endpoints")
	}
	return init, resp
}

// benchPayload is the representative 64-byte telemetry record.
var benchPayload = func() []byte {
	p := make([]byte, 64)
	rng.New(7).Read(p)
	return p
}()

func benchSeal(b *testing.B) {
	init, _ := pairedChannels(b)
	// Warm the pooled record buffer to its steady-state capacity before the
	// timed loop, so b.ReportAllocs measures the per-record cost rather than
	// the one-time pool growth.
	if _, err := init.Seal(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := init.Seal(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOpen(b *testing.B) {
	init, resp := pairedChannels(b)
	// Pre-seal the records outside the timed loop; each must be opened in
	// sequence (the receiver enforces monotonic sequence numbers), and each
	// must be copied out of Seal's pooled record buffer to be retained.
	records := make([][]byte, b.N+1)
	for i := range records {
		rec, err := init.Seal(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		records[i] = append([]byte(nil), rec...)
	}
	// Warm the receiver's pooled plaintext buffer (records[0] is the warm-up
	// record; the timed loop opens the rest).
	if _, err := resp.Open(records[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resp.Open(records[i+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIDSDetect pushes one tick's worth of steady-state telemetry — two
// healthy link samples, a good GNSS verdict and a benign event the signature
// detector ignores — through the full default detector suite.
func benchIDSDetect(b *testing.B) {
	engine := ids.DefaultEngine()
	events := []ids.Event{
		{Kind: ids.EventLinkSample, Source: "harvester-1", OK: true, Value: 1},
		{Kind: ids.EventLinkSample, Source: "forwarder-1", OK: true, Value: 1},
		{Kind: ids.EventGNSSVerdict, Source: "harvester-1", OK: true},
		{Kind: ids.EventDeauth, Source: "ap-1", OK: true},
	}
	// Warm the per-source detector state (EWMA maps, de-auth window rings) to
	// steady-state capacity, so the timed loop measures detection, not the
	// one-time window growth.
	const warm = 64
	for i := 0; i < warm; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		for _, ev := range events {
			ev.At = at
			engine.Ingest(ev)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(warm+i) * 500 * time.Millisecond
		for _, ev := range events {
			ev.At = at
			engine.Ingest(ev)
		}
	}
}
