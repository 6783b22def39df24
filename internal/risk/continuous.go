package risk

import (
	"sort"
	"time"
)

// ContinuousAssessor implements the paper's announced future work (Section
// VI): "a forestry-adapted risk assessment methodology, using ISO/SAE 21434
// (in particular the continuous risk assessment part)". It keeps the TARA
// live during operations: intrusion-detection observations re-rate the
// attack feasibility of matching threat scenarios (an attack observed in the
// field is, by definition, highly feasible *here and now*), and the register
// is recomputed on demand so the coordinator can react to risk changes —
// e.g. tightening the operating mode when a scenario crosses the treatment
// threshold.
//
// Observations decay: a scenario observed long ago relaxes back toward its
// treated baseline after DecayAfter of quiet.
type ContinuousAssessor struct {
	model    *Model
	applied  []string
	baseline []AssessedRisk

	// DecayAfter is how long an observation keeps a scenario escalated.
	DecayAfter time.Duration

	// lastSeen maps threat scenario ID to the latest observation time.
	lastSeen map[string]time.Duration
}

// NewContinuousAssessor builds a live assessor over the model with the given
// applied controls.
func NewContinuousAssessor(model *Model, appliedControls []string) (*ContinuousAssessor, error) {
	baseline, err := model.Assess(appliedControls)
	if err != nil {
		return nil, err
	}
	applied := append([]string(nil), appliedControls...)
	return &ContinuousAssessor{
		model:      model,
		applied:    applied,
		baseline:   baseline,
		DecayAfter: 30 * time.Minute,
		lastSeen:   make(map[string]time.Duration),
	}, nil
}

// attackClassIndex maps an implemented attack class to the threat scenarios
// it realises.
func (a *ContinuousAssessor) scenariosForClass(attackClass string) []string {
	var out []string
	for _, t := range a.model.Threats {
		if t.AttackClass == attackClass && t.AttackClass != "" {
			out = append(out, t.ID)
		}
	}
	return out
}

// ObserveAttack records that an attack of the given class was observed (by
// the IDS or an operator) at virtual time now. Unknown classes are ignored
// — observation of something outside the model is a finding for the next
// full TARA iteration, not for the live register.
func (a *ContinuousAssessor) ObserveAttack(attackClass string, now time.Duration) {
	for _, id := range a.scenariosForClass(attackClass) {
		a.lastSeen[id] = now
	}
}

// ObserveAlertType maps common IDS alert types to attack classes and records
// the observation.
func (a *ContinuousAssessor) ObserveAlertType(alertType string, now time.Duration) {
	class, ok := alertClassMap[alertType]
	if !ok {
		return
	}
	a.ObserveAttack(class, now)
}

var alertClassMap = map[string]string{
	"link-degraded":   "rf-jamming",
	"deauth-flood":    "deauth-flood",
	"mgmt-forgery":    "deauth-flood",
	"gnss-anomaly":    "gnss-spoof",
	"replay":          "replay",
	"tampered-record": "command-injection",
	"auth-failure":    "command-injection",
}

// Current recomputes the live register at virtual time now: scenarios with a
// fresh observation are escalated to FeasibilityHigh (observed attacks are
// feasible by demonstration); stale observations fall back to the treated
// baseline.
func (a *ContinuousAssessor) Current(now time.Duration) []AssessedRisk {
	return a.CurrentInto(nil, now)
}

// CurrentInto is Current with a caller-supplied register buffer: the live
// register is appended into dst[:0] and the (possibly grown) slice returned,
// so a 1Hz caller reusing its previous return value recomputes the register
// without allocating. The ordering is identical to Current's — risk value
// descending, scenario ID ascending on ties — and since scenario IDs are
// unique the order is total, so the sort algorithm cannot influence it.
func (a *ContinuousAssessor) CurrentInto(dst []AssessedRisk, now time.Duration) []AssessedRisk {
	dst = append(dst[:0], a.baseline...)
	for i := range dst {
		seen, ok := a.lastSeen[dst[i].Scenario.ID]
		if !ok || now-seen > a.DecayAfter {
			continue
		}
		dst[i].Feasibility = FeasibilityHigh
		dst[i].RiskValue = RiskValue(dst[i].Damage.Impact.Overall(), FeasibilityHigh)
		dst[i].Treatment = RecommendTreatment(dst[i].RiskValue)
	}
	// Insertion sort: the register is small (a dozen scenarios) and
	// sort.Slice's reflect-based swapper allocates per call.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && assessedLess(&dst[j], &dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

func assessedLess(a, b *AssessedRisk) bool {
	if a.RiskValue != b.RiskValue {
		return a.RiskValue > b.RiskValue
	}
	return a.Scenario.ID < b.Scenario.ID
}

// Escalated returns the scenario IDs currently escalated above their treated
// baseline, sorted.
func (a *ContinuousAssessor) Escalated(now time.Duration) []string {
	base := make(map[string]int, len(a.baseline))
	for _, r := range a.baseline {
		base[r.Scenario.ID] = r.RiskValue
	}
	var out []string
	for _, r := range a.Current(now) {
		if r.RiskValue > base[r.Scenario.ID] {
			out = append(out, r.Scenario.ID)
		}
	}
	sort.Strings(out)
	return out
}

// OperatingMode is the coordinator-facing recommendation derived from the
// live register.
type OperatingMode int

// Operating modes, from normal operation to safe stop.
const (
	ModeNormal OperatingMode = iota + 1
	ModeRestricted
	ModeSafeStop
)

// String returns a short mode label.
func (m OperatingMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeRestricted:
		return "restricted"
	case ModeSafeStop:
		return "safe-stop"
	default:
		return "unknown"
	}
}

// RecommendMode maps the live register's worst safety-relevant risk to an
// operating mode: risk ≥ 4 with severe safety impact demands a safe stop,
// risk ≥ 3 restricted (slow) operation, else normal.
func RecommendMode(register []AssessedRisk) OperatingMode {
	mode := ModeNormal
	for _, r := range register {
		if r.Damage.Impact.Safety < ImpactMajor {
			continue
		}
		switch {
		case r.RiskValue >= 4:
			return ModeSafeStop
		case r.RiskValue >= 3:
			mode = ModeRestricted
		}
	}
	return mode
}
