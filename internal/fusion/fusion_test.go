package fusion

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sensors"
)

func det(id string, pos geo.Vec, sensor string) sensors.Detection {
	return sensors.Detection{TargetID: id, Pos: pos, Confidence: 0.9, Sensor: sensor}
}

func TestConfirmAfterKHits(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 3})
	p := geo.V(10, 10)
	if got := tr.Update(0, []sensors.Detection{det("w1", p, "lidar")}); len(got) != 0 {
		t.Fatal("confirmed on first hit with K=3")
	}
	if got := tr.Update(time.Second, []sensors.Detection{det("w1", p, "lidar")}); len(got) != 0 {
		t.Fatal("confirmed on second hit with K=3")
	}
	got := tr.Update(2*time.Second, []sensors.Detection{det("w1", p, "camera")})
	if len(got) != 1 {
		t.Fatalf("confirmed = %d, want 1 on third hit", len(got))
	}
	if got[0].TargetID != "w1" {
		t.Fatalf("target = %q, want w1", got[0].TargetID)
	}
	if got[0].SensorHits["lidar"] != 2 || got[0].SensorHits["camera"] != 1 {
		t.Fatalf("sensor hits = %v", got[0].SensorHits)
	}
}

func TestORFusionConfirmsImmediately(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 1})
	got := tr.Update(0, []sensors.Detection{det("w1", geo.V(5, 5), "lidar")})
	if len(got) != 1 {
		t.Fatal("OR-fusion must confirm on first hit")
	}
	if got[0].ConfirmedAt != 0 {
		t.Fatalf("ConfirmedAt = %v, want 0", got[0].ConfirmedAt)
	}
}

func TestAssociationGate(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 2, GateM: 3})
	tr.Update(0, []sensors.Detection{det("w1", geo.V(0, 0), "lidar")})
	// 10 m away: outside the gate, new track — no confirmation.
	if got := tr.Update(time.Second, []sensors.Detection{det("w1", geo.V(10, 0), "lidar")}); len(got) != 0 {
		t.Fatal("distant detection associated into existing track")
	}
	if len(tr.Active()) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tr.Active()))
	}
}

func TestTrackExpiry(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 2, ExpireAfter: 2 * time.Second})
	tr.Update(0, []sensors.Detection{det("w1", geo.V(0, 0), "lidar")})
	tr.Update(5*time.Second, nil) // beyond expiry
	if len(tr.Active()) != 0 {
		t.Fatalf("tracks = %d, want 0 after expiry", len(tr.Active()))
	}
}

func TestFalseAlarmScoring(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 2})
	clutter := sensors.Detection{Pos: geo.V(3, 3), Sensor: "camera", FalsePositive: true}
	tr.Update(0, []sensors.Detection{clutter})
	got := tr.Update(time.Second, []sensors.Detection{clutter})
	if len(got) != 1 {
		t.Fatalf("confirmed = %d, want 1", len(got))
	}
	if !got[0].FalseAlarm() {
		t.Fatal("clutter track not scored as false alarm")
	}
	if tr.Metrics().FalseAlarms != 1 {
		t.Fatalf("FalseAlarms = %d, want 1", tr.Metrics().FalseAlarms)
	}
}

func TestConfirmedNear(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 1})
	tr.Update(0, []sensors.Detection{
		det("w1", geo.V(0, 0), "lidar"),
		det("w2", geo.V(100, 100), "lidar"),
	})
	near := tr.ConfirmedNear(geo.V(1, 1), 10)
	if len(near) != 1 || near[0].TargetID != "w1" {
		t.Fatalf("near = %v", near)
	}
}

func TestMeanConfirmLatency(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 2})
	p := geo.V(0, 0)
	tr.Update(0, []sensors.Detection{det("w1", p, "lidar")})
	tr.Update(4*time.Second, []sensors.Detection{det("w1", p, "lidar")})
	m := tr.Metrics()
	if m.MeanConfirmLatency != 4*time.Second {
		t.Fatalf("latency = %v, want 4s", m.MeanConfirmLatency)
	}
}

func TestStationCombinesScanners(t *testing.T) {
	grid, err := geo.NewGrid(50, 50, 2)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	r := rng.New(3)
	st := &Station{
		Name: "forwarder",
		Pos:  func() geo.Vec { return geo.V(50, 50) },
		Scanners: []Scanner{
			sensors.NewLidar(r, grid),
			sensors.NewCamera(r, grid),
		},
	}
	targets := []sensors.Target{{ID: "w1", Pos: geo.V(55, 50)}}
	bySensor := map[string]bool{}
	for i := 0; i < 100; i++ {
		for _, d := range st.Scan(targets, sensors.Clear()) {
			bySensor[d.Sensor] = true
		}
	}
	if !bySensor["lidar"] || !bySensor["camera"] {
		t.Fatalf("station sensors seen = %v, want both", bySensor)
	}
}

func TestDronePOVDefeatsOcclusion(t *testing.T) {
	// The Fig. 2 scenario in miniature: a tree wall hides the worker from the
	// forwarder; adding the drone's aerial camera restores detection.
	grid, err := geo.NewGrid(100, 100, 1)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	for row := 0; row < 100; row++ {
		grid.Set(geo.C(55, row), geo.Tree)
	}
	r := rng.New(5)
	fwOnly := &Station{
		Pos:      func() geo.Vec { return geo.V(50, 50) },
		Scanners: []Scanner{sensors.NewLidar(r, grid), sensors.NewCamera(r, grid)},
	}
	drone := &Station{
		Pos:      func() geo.Vec { return geo.V(58, 50) },
		Scanners: []Scanner{sensors.NewAerialCamera(r, grid)},
	}
	targets := []sensors.Target{{ID: "w1", Pos: geo.V(60, 50)}}

	real := func(ds []sensors.Detection) bool {
		for _, d := range ds {
			if !d.FalsePositive {
				return true
			}
		}
		return false
	}
	fwHits, droneHits := 0, 0
	for i := 0; i < 200; i++ {
		if real(fwOnly.Scan(targets, sensors.Clear())) {
			fwHits++
		}
		if real(drone.Scan(targets, sensors.Clear())) {
			droneHits++
		}
	}
	if fwHits != 0 {
		t.Fatalf("forwarder saw through the wall %d times", fwHits)
	}
	if droneHits < 150 {
		t.Fatalf("drone hits = %d/200, want high", droneHits)
	}
}

func TestPositionBlending(t *testing.T) {
	tr := NewTracker(Options{ConfirmHits: 1, GateM: 5})
	tr.Update(0, []sensors.Detection{det("w1", geo.V(0, 0), "lidar")})
	tr.Update(time.Second, []sensors.Detection{det("w1", geo.V(2, 0), "lidar")})
	tracks := tr.Active()
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d, want 1", len(tracks))
	}
	if tracks[0].Pos.X <= 0 || tracks[0].Pos.X >= 2 {
		t.Fatalf("blended X = %v, want in (0,2)", tracks[0].Pos.X)
	}
}

// bruteAssociate is associate without the per-axis pre-check: the full Dist
// scan it must agree with.
func bruteAssociate(t *Tracker, p geo.Vec) *Track {
	var best *Track
	bestDist := t.opts.GateM
	for _, tr := range t.tracks {
		if d := tr.Pos.Dist(p); d <= bestDist {
			best, bestDist = tr, d
		}
	}
	return best
}

func TestAssociateMatchesBruteForce(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	special := []geo.Vec{
		geo.V(3, 0), geo.V(0, -3), // exactly at the default gate from the origin
		geo.V(1.8, 2.4), // Hypot(1.8, 2.4) == 3 with both offsets inside the gate
		geo.V(0.3, 0.4), // likewise at the 0.5 m gate
		geo.V(inf, 0), geo.V(0, -inf), geo.V(inf, -inf),
		geo.V(nan, 0), geo.V(0, nan), geo.V(nan, inf),
	}
	r := rng.New(17)
	for _, gate := range []float64{0 /* the 3 m default */, 0.5, inf} {
		for trial := 0; trial < 200; trial++ {
			tr := NewTracker(Options{GateM: gate})
			// Positions on a half-metre lattice make equal distances (ties,
			// where the later track wins) and gate-exact offsets common.
			for i := r.Intn(12); i > 0; i-- {
				tr.tracks = append(tr.tracks, &Track{ID: len(tr.tracks), Pos: geo.V(
					float64(r.Intn(17)-8)/2, float64(r.Intn(17)-8)/2)})
			}
			for i := r.Intn(3); i > 0; i-- {
				tr.tracks = append(tr.tracks, &Track{ID: len(tr.tracks), Pos: special[r.Intn(len(special))]})
			}
			queries := append([]geo.Vec{{}, geo.V(float64(r.Intn(9)-4)/2, float64(r.Intn(9)-4)/2),
				geo.V(r.Range(-5, 5), r.Range(-5, 5))}, special...)
			for _, q := range queries {
				got, want := tr.associate(q), bruteAssociate(tr, q)
				if got != want {
					t.Fatalf("gate %v, query %v over %d tracks: associate picked %+v, full Dist scan %+v",
						tr.opts.GateM, q, len(tr.tracks), got, want)
				}
			}
		}
	}
}
