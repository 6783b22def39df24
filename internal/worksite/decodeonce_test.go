package worksite_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/worksite"
)

// TestDecodeOnceTrafficSplit runs every catalog cell and checks where
// received payloads were decoded. Honest traffic is always dispatched from
// the sender's snapshot: each parser call is accounted for by a forged data
// frame the attacker's radio delivered, so a cell without forged frames
// parses nothing. The forging attacks on the unsecured profile do reach the
// parser, which is what keeps their frames judged by it; on the secured
// profile they die at the secure channel first.
func TestDecodeOnceTrafficSplit(t *testing.T) {
	const (
		seed    = 3
		horizon = 10 * time.Minute
	)
	mustParse := map[string]bool{
		"unsecured/replay":            true,
		"unsecured/command-injection": true,
		"unsecured/multi-attack":      true,
	}
	for _, name := range scenario.List() {
		for _, profile := range scenario.Profiles() {
			cell := profile + "/" + name
			spec, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := scenario.ResolveProfile(profile)
			if err != nil {
				t.Fatal(err)
			}
			sess, _, err := scenario.Build(spec.WithProfile(prof), seed, horizon)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			forged := 0
			med := sess.Site().Medium()
			prev := med.Observer
			med.Observer = func(p radio.Packet, to radio.NodeID, sinr float64, cause radio.DropCause) {
				if cause == radio.DropNone && p.From == worksite.NodeAttacker {
					if f, ok := netsim.SnapshotFrame(p); ok && f.Kind == netsim.FrameData {
						forged++
					}
				}
				if prev != nil {
					prev(p, to, sinr, cause)
				}
			}
			if _, err := sess.Run(context.Background(), horizon); err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			hits, parses := worksite.WireSplit(sess)
			t.Logf("%-30s snapshot hits %5d  parser calls %4d  forged frames delivered %4d", cell, hits, parses, forged)
			if hits == 0 {
				t.Errorf("%s: no payload was dispatched from a snapshot", cell)
			}
			if parses > forged {
				t.Errorf("%s: %d parser calls but only %d forged frames delivered: honest traffic reached the parser", cell, parses, forged)
			}
			if prof.SecureChannels && parses != 0 {
				t.Errorf("%s: %d parser calls on the secured profile", cell, parses)
			}
			if mustParse[cell] && parses == 0 {
				t.Errorf("%s: forged frames never reached the parser", cell)
			}
		}
	}
}
