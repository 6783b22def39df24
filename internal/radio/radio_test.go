package radio

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simclock"
)

type fixture struct {
	sched  *simclock.Scheduler
	medium *Medium
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sched := simclock.New()
	grid, err := geo.NewGrid(100, 100, 2)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMedium(sched, grid, rng.New(1), Config{})
	return &fixture{sched: sched, medium: m}
}

func staticNode(id NodeID, pos geo.Vec, ch int) *Node {
	return &Node{
		ID:         id,
		Pos:        func() geo.Vec { return pos },
		Channel:    ch,
		TxPowerDBm: 20,
		Online:     true,
	}
}

func (f *fixture) pump(t *testing.T) {
	t.Helper()
	if err := f.sched.Run(f.sched.Now() + 1e9); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCloseRangeDelivery(t *testing.T) {
	f := newFixture(t)
	var got []Packet
	a := staticNode("a", geo.V(10, 10), 1)
	b := staticNode("b", geo.V(20, 10), 1)
	b.Recv = func(p Packet) { got = append(got, p) }
	f.medium.AddNode(a)
	f.medium.AddNode(b)

	delivered := 0
	for i := 0; i < 100; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 100}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	delivered = len(got)
	if delivered < 95 {
		t.Fatalf("close-range delivery = %d/100, want >= 95", delivered)
	}
}

func TestFarRangeDrops(t *testing.T) {
	f := newFixture(t)
	received := 0
	a := staticNode("a", geo.V(0, 0), 1)
	b := staticNode("b", geo.V(4000, 4000), 1) // far outside the grid, huge path loss
	b.Recv = func(Packet) { received++ }
	f.medium.AddNode(a)
	f.medium.AddNode(b)
	for i := 0; i < 50; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 100}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	if received > 5 {
		t.Fatalf("far-range delivery = %d/50, want ~0", received)
	}
	if f.medium.Stats().Drops["weak-signal"] == 0 {
		t.Fatal("expected weak-signal drops")
	}
}

func TestChannelIsolation(t *testing.T) {
	f := newFixture(t)
	received := 0
	a := staticNode("a", geo.V(10, 10), 1)
	b := staticNode("b", geo.V(12, 10), 2)
	b.Recv = func(Packet) { received++ }
	f.medium.AddNode(a)
	f.medium.AddNode(b)
	if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 10}); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	f.pump(t)
	if received != 0 {
		t.Fatal("cross-channel packet delivered")
	}
}

func TestBroadcastReachesAllOnChannel(t *testing.T) {
	f := newFixture(t)
	counts := map[NodeID]int{}
	a := staticNode("a", geo.V(50, 50), 1)
	f.medium.AddNode(a)
	for _, id := range []NodeID{"b", "c", "d"} {
		id := id
		n := staticNode(id, geo.V(55, 50), 1)
		n.Recv = func(Packet) { counts[id]++ }
		f.medium.AddNode(n)
	}
	other := staticNode("e", geo.V(55, 50), 2)
	other.Recv = func(Packet) { counts["e"]++ }
	f.medium.AddNode(other)

	for i := 0; i < 20; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: Broadcast, Size: 50}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	for _, id := range []NodeID{"b", "c", "d"} {
		if counts[id] < 15 {
			t.Fatalf("node %s received %d/20 broadcasts", id, counts[id])
		}
	}
	if counts["e"] != 0 {
		t.Fatal("broadcast leaked across channels")
	}
}

func TestJammingCausesLoss(t *testing.T) {
	f := newFixture(t)
	received := 0
	a := staticNode("a", geo.V(10, 10), 1)
	b := staticNode("b", geo.V(40, 10), 1)
	b.Recv = func(Packet) { received++ }
	f.medium.AddNode(a)
	f.medium.AddNode(b)

	jammer := &Jammer{
		ID:       "jam-1",
		Pos:      func() geo.Vec { return geo.V(42, 10) },
		Channel:  1,
		PowerDBm: 30,
		Active:   true,
	}
	f.medium.AddJammer(jammer)
	for i := 0; i < 50; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 100}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	jammedLoss := 50 - received

	// Deactivate and compare.
	jammer.Active = false
	received = 0
	for i := 0; i < 50; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 100}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	cleanLoss := 50 - received
	if jammedLoss <= cleanLoss {
		t.Fatalf("jamming loss %d not worse than clean loss %d", jammedLoss, cleanLoss)
	}
	if f.medium.Stats().Drops["jammed"] == 0 {
		t.Fatal("expected jammed drop classification")
	}
}

func TestWidebandJammerHitsAllChannels(t *testing.T) {
	f := newFixture(t)
	received := 0
	a := staticNode("a", geo.V(10, 10), 3)
	b := staticNode("b", geo.V(40, 10), 3)
	b.Recv = func(Packet) { received++ }
	f.medium.AddNode(a)
	f.medium.AddNode(b)
	f.medium.AddJammer(&Jammer{
		ID:       "wb",
		Pos:      func() geo.Vec { return geo.V(40, 12) },
		Channel:  1, // mismatched, but wideband
		Wideband: true,
		PowerDBm: 30,
		Active:   true,
	})
	for i := 0; i < 50; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 100}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	if received > 25 {
		t.Fatalf("wideband jammer: %d/50 delivered, want heavy loss", received)
	}
}

func TestOfflineSenderErrors(t *testing.T) {
	f := newFixture(t)
	a := staticNode("a", geo.V(10, 10), 1)
	a.Online = false
	f.medium.AddNode(a)
	if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 10}); err == nil {
		t.Fatal("want error for offline sender")
	}
	if err := f.medium.Transmit(Packet{From: "ghost", To: "b", Size: 10}); err == nil {
		t.Fatal("want error for unknown sender")
	}
}

func TestOfflineReceiverDropped(t *testing.T) {
	f := newFixture(t)
	received := 0
	a := staticNode("a", geo.V(10, 10), 1)
	b := staticNode("b", geo.V(12, 10), 1)
	b.Online = false
	b.Recv = func(Packet) { received++ }
	f.medium.AddNode(a)
	f.medium.AddNode(b)
	if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 10}); err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	f.pump(t)
	if received != 0 {
		t.Fatal("offline receiver got packet")
	}
	if f.medium.Stats().Drops["offline"] != 1 {
		t.Fatalf("offline drops = %d, want 1", f.medium.Stats().Drops["offline"])
	}
}

func TestFoliageAttenuation(t *testing.T) {
	sched := simclock.New()
	grid, err := geo.NewGrid(100, 1, 1)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := NewMedium(sched, grid, rng.New(5), Config{})
	a, b := geo.V(0.5, 0.5), geo.V(80.5, 0.5)
	clearLoss := m.pathLossDB(a, b)
	// Plant a dense grove between them after the medium exists: the foliage
	// walk reads the live grid.
	for col := 20; col < 60; col++ {
		grid.Set(geo.C(col, 0), geo.Tree)
	}
	groveLoss := m.pathLossDB(a, b)
	if groveLoss <= clearLoss+5 {
		t.Fatalf("foliage attenuation too weak: clear %.1f dB vs grove %.1f dB path loss", clearLoss, groveLoss)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	f := newFixture(t)
	a := staticNode("a", geo.V(10, 10), 1)
	b := staticNode("b", geo.V(12, 10), 1)
	f.medium.AddNode(a)
	f.medium.AddNode(b)
	observed := 0
	f.medium.Observer = func(Packet, NodeID, float64, DropCause) { observed++ }
	for i := 0; i < 5; i++ {
		if err := f.medium.Transmit(Packet{From: "a", To: "b", Size: 10}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
	}
	f.pump(t)
	if observed != 5 {
		t.Fatalf("observer saw %d attempts, want 5", observed)
	}
}

func TestAirtimeScalesWithSize(t *testing.T) {
	f := newFixture(t)
	small := f.medium.Airtime(10)
	large := f.medium.Airtime(1000)
	if large <= small {
		t.Fatalf("airtime(1000)=%v not > airtime(10)=%v", large, small)
	}
}

// The empty map matters: Report.Radio serialises it as {} rather than null.
func TestStatsCopyIsolated(t *testing.T) {
	f := newFixture(t)
	s := f.medium.Stats()
	if s.Drops == nil || len(s.Drops) != 0 {
		t.Fatalf("Drops = %#v before any drop, want an empty non-nil map", s.Drops)
	}
	s.Drops["weak-signal"] = 999
	if f.medium.Stats().Drops["weak-signal"] == 999 {
		t.Fatal("Stats returned a live reference")
	}
}
