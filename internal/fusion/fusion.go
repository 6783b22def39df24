// Package fusion implements the collaborative people-detection function of
// the paper's Fig. 2: detections from multiple sensors — the forwarder's own
// LiDAR/camera and the drone's aerial camera ("an additional point of view to
// eliminate occlusions caused by terrain obstacles") — are associated into
// tracks and confirmed according to a configurable policy.
//
// Two policies matter for the E2a ablation: OR-fusion (confirm on first hit,
// lowest latency, highest false-alarm rate) and K-of-window voting (confirm
// after K associated hits, trading latency for false-alarm suppression).
package fusion

import (
	"time"

	"repro/internal/geo"
	"repro/internal/sensors"
)

// Scanner is any perception sensor that can be polled for detections.
// sensors.Lidar, sensors.Camera, sensors.Ultrasonic and sensors.AerialCamera
// all satisfy it.
type Scanner interface {
	Scan(from geo.Vec, targets []sensors.Target, w sensors.Weather) []sensors.Detection
}

var (
	_ Scanner = (*sensors.Lidar)(nil)
	_ Scanner = (*sensors.Camera)(nil)
	_ Scanner = (*sensors.Ultrasonic)(nil)
	_ Scanner = (*sensors.AerialCamera)(nil)
)

// Station is one observation post (a machine) carrying a suite of scanners at
// a moving position.
type Station struct {
	Name     string
	Pos      func() geo.Vec
	Scanners []Scanner
}

// Scan polls every scanner at the station's current position.
func (st *Station) Scan(targets []sensors.Target, w sensors.Weather) []sensors.Detection {
	var out []sensors.Detection
	from := st.Pos()
	for _, sc := range st.Scanners {
		out = append(out, sc.Scan(from, targets, w)...)
	}
	return out
}

// Track is a fused hypothesis that a person/object is present.
type Track struct {
	ID          int           `json:"id"`
	Pos         geo.Vec       `json:"pos"`
	Hits        int           `json:"hits"`
	FirstSeen   time.Duration `json:"firstSeenNs"`
	LastSeen    time.Duration `json:"lastSeenNs"`
	Confirmed   bool          `json:"confirmed"`
	ConfirmedAt time.Duration `json:"confirmedAtNs"`
	// TargetID is the majority ground-truth association ("" for clutter).
	TargetID string `json:"targetId"`
	// SensorHits counts contributions per sensor name.
	SensorHits map[string]int `json:"sensorHits"`

	targetVotes map[string]int
}

// FalseAlarm reports whether a confirmed track has no ground-truth target
// behind it (scoring only; the controller cannot know this).
func (tr *Track) FalseAlarm() bool { return tr.Confirmed && tr.TargetID == "" }

// Options configures a Tracker.
type Options struct {
	// GateM is the association gate: a detection within this distance of an
	// existing track updates it. Default 3 m.
	GateM float64
	// ConfirmHits is the number of associated hits required to confirm a
	// track. 1 reproduces OR-fusion. Default 2.
	ConfirmHits int
	// ExpireAfter drops tracks not updated for this long. Default 5 s.
	ExpireAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.GateM == 0 {
		o.GateM = 3
	}
	if o.ConfirmHits == 0 {
		o.ConfirmHits = 2
	}
	if o.ExpireAfter == 0 {
		o.ExpireAfter = 5 * time.Second
	}
	return o
}

// Tracker associates detections into tracks and confirms them.
type Tracker struct {
	opts   Options
	tracks []*Track
	nextID int

	confirmedTotal int
	falseAlarms    int
	sumConfirmLat  time.Duration

	// free recycles expired Track objects (and their per-sensor/per-target
	// maps) so steady-state tracking does not allocate. Recycled tracks are
	// reused by the next Update; callers must not retain expired tracks.
	free []*Track
	// newly is the reused backing array of Update's return value.
	newly []*Track
}

// NewTracker creates a tracker with the given options.
func NewTracker(opts Options) *Tracker {
	return &Tracker{opts: opts.withDefaults(), nextID: 1}
}

// Update ingests one scan's detections at virtual time now and returns the
// tracks confirmed by this update. The returned slice is a scratch buffer
// owned by the tracker, valid until the next Update.
func (t *Tracker) Update(now time.Duration, dets []sensors.Detection) []*Track {
	newlyConfirmed := t.newly[:0]
	for _, d := range dets {
		tr := t.associate(d.Pos)
		if tr == nil {
			tr = t.newTrack()
			tr.ID = t.nextID
			tr.Pos = d.Pos
			tr.FirstSeen = now
			t.nextID++
			t.tracks = append(t.tracks, tr)
		}
		tr.Hits++
		tr.LastSeen = now
		// Position: exponential blend toward the newest detection.
		tr.Pos = tr.Pos.Lerp(d.Pos, 0.5)
		tr.SensorHits[d.Sensor]++
		tr.targetVotes[d.TargetID]++
		tr.TargetID = majority(tr.targetVotes)
		if !tr.Confirmed && tr.Hits >= t.opts.ConfirmHits {
			tr.Confirmed = true
			tr.ConfirmedAt = now
			t.confirmedTotal++
			t.sumConfirmLat += now - tr.FirstSeen
			if tr.FalseAlarm() {
				t.falseAlarms++
			}
			newlyConfirmed = append(newlyConfirmed, tr)
		}
	}
	t.expire(now)
	t.newly = newlyConfirmed
	return newlyConfirmed
}

// newTrack returns a zeroed track, recycling an expired one when available.
func (t *Tracker) newTrack() *Track {
	if n := len(t.free); n > 0 {
		tr := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		sh, tv := tr.SensorHits, tr.targetVotes
		clear(sh)
		clear(tv)
		*tr = Track{SensorHits: sh, targetVotes: tv}
		return tr
	}
	return &Track{
		SensorHits:  make(map[string]int),
		targetVotes: make(map[string]int),
	}
}

func (t *Tracker) associate(p geo.Vec) *Track {
	var best *Track
	bestDist := t.opts.GateM
	for _, tr := range t.tracks {
		if d := tr.Pos.Dist(p); d <= bestDist {
			best, bestDist = tr, d
		}
	}
	return best
}

func (t *Tracker) expire(now time.Duration) {
	kept := t.tracks[:0]
	for _, tr := range t.tracks {
		if now-tr.LastSeen <= t.opts.ExpireAfter {
			kept = append(kept, tr)
		} else {
			t.free = append(t.free, tr)
		}
	}
	for i := len(kept); i < len(t.tracks); i++ {
		t.tracks[i] = nil
	}
	t.tracks = kept
}

// Active returns the live tracks.
func (t *Tracker) Active() []*Track {
	out := make([]*Track, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// ConfirmedNear returns confirmed tracks within radius of pos — the safety
// controller's protective-field query.
func (t *Tracker) ConfirmedNear(pos geo.Vec, radius float64) []*Track {
	var out []*Track
	for _, tr := range t.tracks {
		if tr.Confirmed && tr.Pos.Dist(pos) <= radius {
			out = append(out, tr)
		}
	}
	return out
}

// AppendConfirmedPositions appends the positions of confirmed tracks within
// radius of pos to dst and returns it — the allocation-free form of
// ConfirmedNear for the per-tick protective-field query.
func (t *Tracker) AppendConfirmedPositions(dst []geo.Vec, pos geo.Vec, radius float64) []geo.Vec {
	for _, tr := range t.tracks {
		if tr.Confirmed && tr.Pos.Dist(pos) <= radius {
			dst = append(dst, tr.Pos)
		}
	}
	return dst
}

// Metrics summarises tracker performance for the experiment harness.
type Metrics struct {
	ConfirmedTotal     int           `json:"confirmedTotal"`
	FalseAlarms        int           `json:"falseAlarms"`
	MeanConfirmLatency time.Duration `json:"meanConfirmLatencyNs"`
}

// Metrics returns cumulative tracker metrics.
func (t *Tracker) Metrics() Metrics {
	m := Metrics{ConfirmedTotal: t.confirmedTotal, FalseAlarms: t.falseAlarms}
	if t.confirmedTotal > 0 {
		m.MeanConfirmLatency = t.sumConfirmLat / time.Duration(t.confirmedTotal)
	}
	return m
}

func majority(votes map[string]int) string {
	best, bestN := "", -1
	for k, n := range votes {
		if n > bestN || (n == bestN && k > best) {
			best, bestN = k, n
		}
	}
	return best
}
