package attack

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sensors"
	"repro/internal/simclock"
)

type rig struct {
	sched  *simclock.Scheduler
	medium *radio.Medium
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sched := simclock.New()
	grid, err := geo.NewGrid(50, 50, 2)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	m := radio.NewMedium(sched, grid, rng.New(1), radio.Config{
		ShadowSigmaDB:   0.001,
		SINRThresholdDB: -50,
	})
	return &rig{sched: sched, medium: m}
}

func (r *rig) adapter(t *testing.T, id radio.NodeID, pos geo.Vec) *netsim.Adapter {
	t.Helper()
	r.medium.AddNode(&radio.Node{
		ID: id, Pos: func() geo.Vec { return pos }, Channel: 1, TxPowerDBm: 20, Online: true,
	})
	a, err := netsim.NewAdapter(r.medium, id, netsim.Options{})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	return a
}

func TestCampaignScheduling(t *testing.T) {
	r := newRig(t)
	gnss := sensors.NewGNSS(rng.New(2))
	c := NewCampaign()
	c.Add(time.Second, 3*time.Second, NewGNSSJam(gnss))
	c.Schedule(r.sched)

	if err := r.sched.Run(500 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gnss.Mode != sensors.GNSSNominal {
		t.Fatal("attack active before its window")
	}
	if err := r.sched.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gnss.Mode != sensors.GNSSJammed {
		t.Fatal("attack not active within window")
	}
	if err := r.sched.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gnss.Mode != sensors.GNSSNominal {
		t.Fatal("attack not deactivated after window")
	}
	log := c.Log()
	if len(log) != 2 || !log[0].Active || log[1].Active {
		t.Fatalf("phase log = %+v", log)
	}
}

func TestCampaignOpenEndedWindow(t *testing.T) {
	r := newRig(t)
	gnss := sensors.NewGNSS(rng.New(3))
	c := NewCampaign()
	c.Add(time.Second, 0, NewGNSSSpoof(gnss, geo.V(10, 0))) // never ends
	c.Schedule(r.sched)
	if err := r.sched.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gnss.Mode != sensors.GNSSSpoofed {
		t.Fatal("open-ended attack ended")
	}
}

func TestJammingToggle(t *testing.T) {
	r := newRig(t)
	j := NewJamming(r.medium, "j1", geo.V(50, 50), 1, 30, false)
	r.adapter(t, "a", geo.V(40, 50))
	r.adapter(t, "b", geo.V(60, 50))
	var sinr float64
	r.medium.Observer = func(_ radio.Packet, _ radio.NodeID, s float64, _ radio.DropCause) { sinr = s }
	// sinrAB sends one probe a→b and returns the SINR the medium computed;
	// the delivery is never run, so the adapter never sees the probe.
	sinrAB := func() float64 {
		t.Helper()
		if err := r.medium.Transmit(radio.Packet{From: "a", To: "b", Size: 10}); err != nil {
			t.Fatalf("Transmit: %v", err)
		}
		return sinr
	}
	j.Begin(r.sched)
	jammed := sinrAB()
	j.End(r.sched)
	// After End the jammer must be inactive: SINR between nodes is healthy.
	healthy := sinrAB()
	if healthy < 0 || jammed > healthy-20 {
		t.Fatalf("SINR jammed %.1f dB, after End %.1f dB: want healthy after End and >= 20 dB worse while jamming", jammed, healthy)
	}
}

func TestDeauthFloodInjects(t *testing.T) {
	r := newRig(t)
	atk := r.adapter(t, "attacker", geo.V(50, 50))
	victim := r.adapter(t, "victim", geo.V(52, 50))
	peer := r.adapter(t, "peer", geo.V(54, 50))
	if err := peer.Associate("victim"); err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if err := r.sched.Run(100 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !victim.Associated("peer") {
		t.Fatal("setup: link not associated")
	}

	f := NewDeauthFlood(atk, "peer", "victim", 100*time.Millisecond)
	f.Begin(r.sched)
	if err := r.sched.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f.End(r.sched)
	if f.Injected() < 10 {
		t.Fatalf("injected = %d, want >= 10 over 2 s at 10 Hz", f.Injected())
	}
	if victim.Associated("peer") {
		t.Fatal("unprotected victim still associated under flood")
	}
}

func TestRecorderAndReplay(t *testing.T) {
	r := newRig(t)
	atk := r.adapter(t, "attacker", geo.V(50, 50))
	a := r.adapter(t, "a", geo.V(52, 50))
	b := r.adapter(t, "b", geo.V(54, 50))

	rec := &Recorder{FilterDst: "b"}
	r.medium.Observer = rec.Tap

	if err := a.Associate("b"); err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if err := r.sched.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := a.SendData("b", []byte{byte(i)}); err != nil {
			t.Fatalf("SendData: %v", err)
		}
	}
	if err := r.sched.Run(200 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rec.Captured() != 5 {
		t.Fatalf("captured = %d, want 5 data frames", rec.Captured())
	}

	delivered := 0
	b.OnMessage = func(radio.NodeID, []byte) { delivered++ }
	rp := NewReplay(atk, rec, 50*time.Millisecond)
	rp.Begin(r.sched)
	if err := r.sched.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rp.End(r.sched)
	if rp.Injected() < 10 {
		t.Fatalf("replayed = %d", rp.Injected())
	}
	// Unsecured link layer accepts replays (the Src "a" is associated).
	if delivered == 0 {
		t.Fatal("no replayed frames delivered on unsecured stack")
	}
}

func TestRecorderFilters(t *testing.T) {
	rec := &Recorder{FilterSrc: "x"}
	frame := netsim.Frame{Kind: netsim.FrameData, Src: "y", Dst: "z"}
	rec.Tap(radio.Packet{From: "y", Payload: frame}, "z", 10, radio.DropNone)
	if rec.Captured() != 0 {
		t.Fatal("recorder captured frame from filtered-out source")
	}
	// Drops are not captured either.
	frame.Src = "x"
	rec.Tap(radio.Packet{From: "x", Payload: frame}, "z", 10, radio.DropJammed)
	if rec.Captured() != 0 {
		t.Fatal("recorder captured a dropped frame")
	}
	rec.Tap(radio.Packet{From: "x", Payload: frame}, "z", 10, radio.DropNone)
	if rec.Captured() != 1 {
		t.Fatal("recorder missed matching frame")
	}
}

func TestCommandInjectionCounts(t *testing.T) {
	r := newRig(t)
	atk := r.adapter(t, "attacker", geo.V(50, 50))
	victim := r.adapter(t, "victim", geo.V(52, 50))
	coordAd := r.adapter(t, "coord", geo.V(54, 50))
	if err := victim.Associate("coord"); err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if err := r.sched.Run(50 * time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_ = coordAd

	got := 0
	victim.OnMessage = func(from radio.NodeID, payload []byte) {
		if from == "coord" && string(payload) == "evil" {
			got++
		}
	}
	inj := NewCommandInjection(atk, "coord", "victim", func() []byte { return []byte("evil") }, 100*time.Millisecond)
	inj.Begin(r.sched)
	if err := r.sched.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	inj.End(r.sched)
	if inj.Injected() < 10 {
		t.Fatalf("injected = %d", inj.Injected())
	}
	if got == 0 {
		t.Fatal("no forged commands accepted by unsecured victim")
	}
}

func TestCameraBlind(t *testing.T) {
	grid, err := geo.NewGrid(10, 10, 1)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	cam := sensors.NewCamera(rng.New(4), grid)
	a := NewCameraBlind("camera-blind", func(b bool) { cam.Blinded = b })
	sched := simclock.New()
	a.Begin(sched)
	if !cam.Blinded {
		t.Fatal("camera not blinded")
	}
	a.End(sched)
	if cam.Blinded {
		t.Fatal("camera still blinded after End")
	}
}

func TestFuncAttack(t *testing.T) {
	var begun, ended bool
	a := &Func{
		AttackName: "custom",
		OnBegin:    func(*simclock.Scheduler) { begun = true },
		OnEnd:      func(*simclock.Scheduler) { ended = true },
	}
	sched := simclock.New()
	a.Begin(sched)
	a.End(sched)
	if !begun || !ended {
		t.Fatalf("func attack: begun=%v ended=%v", begun, ended)
	}
	if a.Name() != "custom" {
		t.Fatalf("name = %s", a.Name())
	}
}

func TestGNSSJamAndSpoofToggle(t *testing.T) {
	gnss := sensors.NewGNSS(rng.New(5))
	sched := simclock.New()
	jam := NewGNSSJam(gnss)
	jam.Begin(sched)
	if gnss.Mode != sensors.GNSSJammed {
		t.Fatal("not jammed")
	}
	jam.End(sched)
	if gnss.Mode != sensors.GNSSNominal {
		t.Fatal("jam not cleared")
	}
	sp := NewGNSSSpoof(gnss, geo.V(5, 5))
	sp.Begin(sched)
	if gnss.Mode != sensors.GNSSSpoofed || gnss.SpoofOffset != geo.V(5, 5) {
		t.Fatal("spoof not applied")
	}
	sp.End(sched)
	if gnss.Mode != sensors.GNSSNominal {
		t.Fatal("spoof not cleared")
	}
}
