package sensors

import (
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Target is a ground-truth object a perception sensor may detect (a worker,
// another machine, an obstacle).
type Target struct {
	ID  string
	Pos geo.Vec
}

// Detection is a perceived target.
type Detection struct {
	TargetID   string  `json:"targetId"`
	Pos        geo.Vec `json:"pos"`
	Confidence float64 `json:"confidence"`
	Sensor     string  `json:"sensor"`
	// FalsePositive marks clutter detections (ground truth, for scoring).
	FalsePositive bool `json:"falsePositive"`
}

// Lidar is a ground-level scanning range sensor. Detection requires grid
// line of sight (terrain obstacles occlude — the Fig. 2 problem) and degrades
// with range and rain (droplet returns).
type Lidar struct {
	rand *rng.Rand
	grid *geo.Grid
	// RangeM is the maximum detection range.
	RangeM float64
	// BaseDetectProb is the per-scan detection probability at close range in
	// clear weather.
	BaseDetectProb float64
	// PosSigmaM is detection position noise.
	PosSigmaM float64

	scratch []Detection
}

// NewLidar creates a LiDAR with a 40 m range over the given grid.
func NewLidar(r *rng.Rand, grid *geo.Grid) *Lidar {
	return &Lidar{
		rand:           r.Derive("lidar"),
		grid:           grid,
		RangeM:         40,
		BaseDetectProb: 0.95,
		PosSigmaM:      0.3,
	}
}

// Scan attempts to detect each target from the sensor position. The returned
// slice is a scratch buffer owned by the sensor: it is valid until the next
// Scan, so callers must consume (or copy) it before scanning again.
func (l *Lidar) Scan(from geo.Vec, targets []Target, w Weather) []Detection {
	out := l.scratch[:0]
	// Weather attenuation is invariant across targets; hoist it out of the
	// loop. The multiplication order below matches the original per-target
	// expression exactly so detection probabilities stay bit-identical.
	fRain, fFog := 1-0.5*w.Rain, 1-0.3*w.Fog
	for _, t := range targets {
		d := from.Dist(t.Pos)
		if d > l.RangeM {
			continue
		}
		if !l.grid.LineOfSight(from, t.Pos) {
			continue
		}
		p := l.BaseDetectProb * rangeFalloff(d, l.RangeM) * fRain * fFog
		if !l.rand.Bool(p) {
			continue
		}
		out = append(out, Detection{
			TargetID:   t.ID,
			Pos:        geo.V(t.Pos.X+l.rand.Norm(0, l.PosSigmaM), t.Pos.Y+l.rand.Norm(0, l.PosSigmaM)),
			Confidence: p,
			Sensor:     "lidar",
		})
	}
	l.scratch = out
	return out
}

// Camera is a ground-level vision sensor running a people-detection model.
// It degrades with darkness and fog and can be blinded by the camera attacks
// of Petit et al. (Section IV-C). It also produces clutter false positives.
type Camera struct {
	rand *rng.Rand
	grid *geo.Grid
	// RangeM is the maximum detection range.
	RangeM float64
	// BaseDetectProb is the close-range clear-weather detection probability.
	BaseDetectProb float64
	// FalsePositiveRate is the per-scan probability of one clutter detection.
	FalsePositiveRate float64
	// Blinded is set by the camera-blinding attack.
	Blinded bool
	// PosSigmaM is detection position noise.
	PosSigmaM float64

	fpCount int
	scratch []Detection
}

// NewCamera creates a camera with a 50 m range over the given grid.
func NewCamera(r *rng.Rand, grid *geo.Grid) *Camera {
	return &Camera{
		rand:              r.Derive("camera"),
		grid:              grid,
		RangeM:            50,
		BaseDetectProb:    0.9,
		FalsePositiveRate: 0.01,
		PosSigmaM:         0.8,
	}
}

// Scan attempts to detect each target from the sensor position. The returned
// slice is a scratch buffer owned by the sensor: it is valid until the next
// Scan, so callers must consume (or copy) it before scanning again.
func (c *Camera) Scan(from geo.Vec, targets []Target, w Weather) []Detection {
	out := c.scratch[:0]
	if c.Blinded {
		// A blinded camera sees almost nothing and hallucinates glare blobs.
		if c.rand.Bool(0.05) {
			out = append(out, c.clutter(from))
		}
		c.scratch = out
		return out
	}
	// Hoisted weather attenuation; multiplication order matches the original
	// per-target expression so probabilities stay bit-identical.
	fDark, fFog, fRain := 1-0.7*w.Darkness, 1-0.5*w.Fog, 1-0.3*w.Rain
	for _, t := range targets {
		d := from.Dist(t.Pos)
		if d > c.RangeM {
			continue
		}
		if !c.grid.LineOfSight(from, t.Pos) {
			continue
		}
		p := c.BaseDetectProb * rangeFalloff(d, c.RangeM) *
			fDark * fFog * fRain
		if !c.rand.Bool(p) {
			continue
		}
		out = append(out, Detection{
			TargetID:   t.ID,
			Pos:        geo.V(t.Pos.X+c.rand.Norm(0, c.PosSigmaM), t.Pos.Y+c.rand.Norm(0, c.PosSigmaM)),
			Confidence: p,
			Sensor:     "camera",
		})
	}
	if c.rand.Bool(c.FalsePositiveRate) {
		out = append(out, c.clutter(from))
	}
	c.scratch = out
	return out
}

func (c *Camera) clutter(from geo.Vec) Detection {
	c.fpCount++
	angle := c.rand.Range(0, 2*math.Pi)
	dist := c.rand.Range(5, c.RangeM)
	return Detection{
		TargetID:      "",
		Pos:           from.Add(geo.V(math.Cos(angle), math.Sin(angle)).Scale(dist)),
		Confidence:    c.rand.Range(0.3, 0.6),
		Sensor:        "camera",
		FalsePositive: true,
	}
}

// Ultrasonic is a short-range ranger used as the last-resort protective
// field sensor: nearly weather-independent, no line-of-sight subtleties
// beyond range.
type Ultrasonic struct {
	rand *rng.Rand
	// RangeM is the maximum detection range.
	RangeM float64
	// DetectProb is the in-range detection probability.
	DetectProb float64

	scratch []Detection
}

// NewUltrasonic creates a ranger with a 5 m range.
func NewUltrasonic(r *rng.Rand) *Ultrasonic {
	return &Ultrasonic{rand: r.Derive("ultrasonic"), RangeM: 5, DetectProb: 0.99}
}

// Scan detects targets within the short protective field. The returned slice
// is a scratch buffer owned by the sensor: it is valid until the next Scan.
func (u *Ultrasonic) Scan(from geo.Vec, targets []Target, _ Weather) []Detection {
	out := u.scratch[:0]
	for _, t := range targets {
		if from.Dist(t.Pos) > u.RangeM {
			continue
		}
		if !u.rand.Bool(u.DetectProb) {
			continue
		}
		out = append(out, Detection{TargetID: t.ID, Pos: t.Pos, Confidence: 0.99, Sensor: "ultrasonic"})
	}
	u.scratch = out
	return out
}

// AerialCamera is the drone's downward-looking detector: terrain obstacles do
// not occlude it, only canopy directly over the target does (the Fig. 2
// "additional point of view" that eliminates occlusions caused by terrain
// obstacles).
type AerialCamera struct {
	rand *rng.Rand
	grid *geo.Grid
	// RangeM is the ground-projected detection radius.
	RangeM float64
	// BaseDetectProb is the clear-weather detection probability.
	BaseDetectProb float64
	// CanopyBlockProb is the probability a target directly under a tree cell
	// is hidden from above.
	CanopyBlockProb float64
	// Blinded is set by camera attacks against the drone.
	Blinded bool
	// PosSigmaM is detection position noise.
	PosSigmaM float64

	scratch []Detection
}

// NewAerialCamera creates a drone camera with a 60 m footprint.
func NewAerialCamera(r *rng.Rand, grid *geo.Grid) *AerialCamera {
	return &AerialCamera{
		rand:            r.Derive("aerial-camera"),
		grid:            grid,
		RangeM:          60,
		BaseDetectProb:  0.92,
		CanopyBlockProb: 0.65,
		PosSigmaM:       1.0,
	}
}

// Scan attempts to detect each target from the drone's ground-projected
// position. The returned slice is a scratch buffer owned by the sensor: it
// is valid until the next Scan.
func (a *AerialCamera) Scan(from geo.Vec, targets []Target, w Weather) []Detection {
	if a.Blinded {
		return nil
	}
	out := a.scratch[:0]
	// Hoisted weather attenuation; multiplication order matches the original
	// per-target expression so probabilities stay bit-identical.
	fFog, fDark, fRain := 1-0.6*w.Fog, 1-0.5*w.Darkness, 1-0.3*w.Rain
	for _, t := range targets {
		d := from.Dist(t.Pos)
		if d > a.RangeM {
			continue
		}
		underCanopy := a.grid.At(a.grid.CellOf(t.Pos)) == geo.Tree
		p := a.BaseDetectProb * rangeFalloff(d, a.RangeM) *
			fFog * fDark * fRain
		if underCanopy {
			p *= 1 - a.CanopyBlockProb
		}
		if !a.rand.Bool(p) {
			continue
		}
		out = append(out, Detection{
			TargetID:   t.ID,
			Pos:        geo.V(t.Pos.X+a.rand.Norm(0, a.PosSigmaM), t.Pos.Y+a.rand.Norm(0, a.PosSigmaM)),
			Confidence: p,
			Sensor:     "aerial-camera",
		})
	}
	a.scratch = out
	return out
}

// rangeFalloff maps distance to a [0,1] multiplier: flat to half range, then
// linear decay to 0.4 at full range.
func rangeFalloff(d, max float64) float64 {
	if d <= max/2 {
		return 1
	}
	frac := (d - max/2) / (max / 2)
	return 1 - 0.6*frac
}
