package sensors

import (
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// GNSSMode captures the electromagnetic condition of the receiver.
type GNSSMode int

// GNSS operating conditions. Spoofed and Jammed are set by the attack
// framework (the mining survey's "GNSS attacks to spoof or jam GNSS signals,
// causing inaccurate navigation").
const (
	GNSSNominal GNSSMode = iota + 1
	GNSSJammed
	GNSSSpoofed
)

// String returns a short mode label.
func (m GNSSMode) String() string {
	switch m {
	case GNSSNominal:
		return "nominal"
	case GNSSJammed:
		return "jammed"
	case GNSSSpoofed:
		return "spoofed"
	default:
		return "unknown"
	}
}

// GNSSReading is one position fix with the signal characteristics Ren et al.
// (Section IV-C) recommend checking as a spoofing defence.
type GNSSReading struct {
	HasFix     bool     `json:"hasFix"`
	Pos        geo.Vec  `json:"pos"`
	HDOP       float64  `json:"hdop"`
	CN0DBHz    float64  `json:"cn0DBHz"` // carrier-to-noise density
	Satellites int      `json:"satellites"`
	Mode       GNSSMode `json:"-"` // ground truth, not visible to consumers
}

// GNSS simulates a receiver mounted on a machine.
type GNSS struct {
	rand *rng.Rand
	// NoiseSigmaM is the nominal per-axis position noise (metres).
	NoiseSigmaM float64
	// Mode is the current electromagnetic condition.
	Mode GNSSMode
	// SpoofOffset displaces reported positions while spoofed.
	SpoofOffset geo.Vec
}

// NewGNSS creates a receiver with nominal 1.2 m noise.
func NewGNSS(r *rng.Rand) *GNSS {
	return &GNSS{rand: r.Derive("gnss"), NoiseSigmaM: 1.2, Mode: GNSSNominal}
}

// Sample produces a reading for a receiver truly located at truth.
func (g *GNSS) Sample(truth geo.Vec) GNSSReading {
	switch g.Mode {
	case GNSSJammed:
		// Receiver loses lock; residual readings show elevated noise floor
		// (low C/N0) and few satellites.
		return GNSSReading{
			HasFix:     false,
			HDOP:       99,
			CN0DBHz:    g.rand.Range(8, 18),
			Satellites: g.rand.Intn(3),
			Mode:       GNSSJammed,
		}
	case GNSSSpoofed:
		// Spoofers overpower authentic signals: the fix is confident but
		// displaced, and C/N0 is anomalously high and uniform.
		p := truth.Add(g.SpoofOffset)
		return GNSSReading{
			HasFix:     true,
			Pos:        geo.V(p.X+g.rand.Norm(0, 0.3), p.Y+g.rand.Norm(0, 0.3)),
			HDOP:       g.rand.Range(0.6, 0.9),
			CN0DBHz:    g.rand.Range(50, 54),
			Satellites: 12,
			Mode:       GNSSSpoofed,
		}
	default:
		return GNSSReading{
			HasFix:     true,
			Pos:        geo.V(truth.X+g.rand.Norm(0, g.NoiseSigmaM), truth.Y+g.rand.Norm(0, g.NoiseSigmaM)),
			HDOP:       g.rand.Range(0.8, 1.6),
			CN0DBHz:    g.rand.Range(38, 46),
			Satellites: 8 + g.rand.Intn(5),
			Mode:       GNSSNominal,
		}
	}
}

// GNSSGuard is the plausibility monitor the navigation stack runs over
// consecutive readings (Ren et al.'s "checking the signal characters, e.g.,
// strength"). It flags fixes whose signal statistics or kinematics are
// implausible; the IDS consumes these flags.
type GNSSGuard struct {
	// MaxSpeedMPS bounds plausible machine speed.
	MaxSpeedMPS float64
	// MaxCN0DBHz is the highest plausible authentic carrier strength.
	MaxCN0DBHz float64

	havePrev bool
	prevPos  geo.Vec
	prevT    float64
}

// NewGNSSGuard returns a guard tuned for a forwarder (max 12 m/s; authentic
// C/N0 rarely exceeds 48 dB-Hz).
func NewGNSSGuard() *GNSSGuard {
	return &GNSSGuard{MaxSpeedMPS: 12, MaxCN0DBHz: 48}
}

// GNSSVerdict is the guard's assessment of one reading.
type GNSSVerdict struct {
	Trustworthy bool   `json:"trustworthy"`
	Reason      string `json:"reason,omitempty"`
}

// Check evaluates a reading taken at virtual time tSec (seconds).
func (gd *GNSSGuard) Check(r GNSSReading, tSec float64) GNSSVerdict {
	if !r.HasFix {
		return GNSSVerdict{Trustworthy: false, Reason: "no fix"}
	}
	if r.CN0DBHz > gd.MaxCN0DBHz {
		return GNSSVerdict{Trustworthy: false, Reason: "carrier strength implausibly high"}
	}
	if gd.havePrev && tSec > gd.prevT {
		dt := tSec - gd.prevT
		speed := r.Pos.Dist(gd.prevPos) / dt
		if speed > gd.MaxSpeedMPS {
			gd.prevPos, gd.prevT = r.Pos, tSec
			return GNSSVerdict{Trustworthy: false, Reason: "position jump exceeds max speed"}
		}
	}
	gd.havePrev = true
	gd.prevPos, gd.prevT = r.Pos, tSec
	return GNSSVerdict{Trustworthy: true}
}

// PositionError returns the distance between a reading and ground truth,
// or +Inf without a fix — the metric the navigation experiments report.
func PositionError(r GNSSReading, truth geo.Vec) float64 {
	if !r.HasFix {
		return math.Inf(1)
	}
	return r.Pos.Dist(truth)
}
