package worksite

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/machine"
	"repro/internal/risk"
	"repro/internal/sensors"
	"repro/internal/simclock"
)

// Safety-relevant distances (metres). DangerRadiusM defines an unsafe event:
// a worker inside it while the forwarder moves. CollisionRadiusM counts as an
// accident.
const (
	DangerRadiusM    = 5.0
	CollisionRadiusM = 1.5
	arriveRadiusM    = 6.0
	effectiveRadiusM = 15.0
	waypointRadiusM  = 2.5
	droneOrbitM      = 25.0
	droneStaleness   = 2 * time.Second
)

// Metrics are the worksite KPIs collected during a run.
type Metrics struct {
	// Productivity.
	LogsDelivered   int     `json:"logsDelivered"`
	EmptyDeliveries int     `json:"emptyDeliveries"` // unloads without cargo (navigation failure)
	DistanceM       float64 `json:"distanceM"`
	// Safety.
	SafetyStops    int           `json:"safetyStops"`
	StoppedFor     time.Duration `json:"stoppedForNs"`
	UnsafeEpisodes int           `json:"unsafeEpisodes"`
	UnsafeTicks    int           `json:"unsafeTicks"`
	Collisions     int           `json:"collisions"`
	MinWorkerDistM float64       `json:"minWorkerDistM"`
	// Navigation integrity.
	NavErrMeanM float64 `json:"navErrMeanM"`
	NavErrMaxM  float64 `json:"navErrMaxM"`
	// Security outcomes.
	SendFailures      int `json:"sendFailures"`
	ReplaysBlocked    int `json:"replaysBlocked"`
	ForgeriesBlocked  int `json:"forgeriesBlocked"`
	CommandsApplied   int `json:"commandsApplied"`   // clear-stops commands executed
	SecurityResponses int `json:"securityResponses"` // live-risk mode escalations
	ChannelHops       int `json:"channelHops"`       // channel-agility responses
	// Perception.
	TracksConfirmed int `json:"tracksConfirmed"`
	FalseAlarms     int `json:"falseAlarms"`

	navErrSum   float64
	navErrCount int
}

// Report is the outcome of a worksite run.
type Report struct {
	Config   Config           `json:"config"`
	Duration time.Duration    `json:"durationNs"`
	Metrics  Metrics          `json:"metrics"`
	Alerts   map[string]int   `json:"alertsByType,omitempty"`
	Radio    map[string]int64 `json:"radioDrops,omitempty"`
}

// commissionControl installs the periodic control loop, the built-in
// metrics/timeline observers, and the initial mission.
func (s *Site) commissionControl() {
	s.workerRand = s.rand.Derive("worker-move")
	s.metrics.MinWorkerDistM = math.Inf(1)
	s.believed = s.forwarder.Pose.Pos
	s.planTo(s.harvest, s.believed)
	s.mission = phaseToHarvest
	s.forwarder.SetState(machine.StateDriving)

	// Built-ins subscribe first so external observers see the same stream
	// the report is accumulated from, never a divergent one.
	s.Subscribe(&metricsObserver{m: &s.metrics})
	s.Subscribe(&timelineObserver{site: s})

	s.firstTickAt = s.sched.Now() + s.cfg.TickPeriod
	s.sched.Every(s.cfg.TickPeriod, func(sch *simclock.Scheduler) {
		s.tickNo++
		s.controlTick(sch.Now())
	})
}

// Run executes the scenario for d of virtual time and returns the report.
// It is a thin compatibility wrapper over the Session API: construct a
// session (or use NewSession) for stepping, observers and early stop.
func (s *Site) Run(d time.Duration) (Report, error) {
	se := &Session{site: s}
	return se.Run(context.Background(), d)
}

func (s *Site) report(d time.Duration) Report {
	fm := s.tracker.Metrics()
	s.metrics.TracksConfirmed = fm.ConfirmedTotal
	s.metrics.FalseAlarms = fm.FalseAlarms
	s.metrics.SafetyStops = s.forwarder.StopTransitions()
	if s.metrics.navErrCount > 0 {
		s.metrics.NavErrMeanM = s.metrics.navErrSum / float64(s.metrics.navErrCount)
	}
	rep := Report{Config: s.cfg, Duration: d, Metrics: s.metrics}
	if math.IsInf(rep.Metrics.MinWorkerDistM, 1) {
		// No minimum observed (no workers, or no ticks yet): report -1
		// instead of +Inf, which json.Marshal rejects. Only the returned
		// copy is translated — the live accumulator keeps +Inf so later
		// ticks can still set a real minimum.
		rep.Metrics.MinWorkerDistM = -1
	}
	if s.engine != nil {
		rep.Alerts = s.engine.CountByType()
	}
	rep.Radio = s.med.Stats().Drops
	return rep
}

// --- control loop ---

func (s *Site) controlTick(now time.Duration) {
	dt := s.cfg.TickPeriod
	s.moveWorkers(dt)
	if s.cfg.DroneEnabled {
		s.droneTick(dt)
	}
	s.forwarderTick(now, dt)

	// 1 Hz housekeeping: heartbeats, status reports, live-risk response.
	if s.tickNo%s.ticksPerSec == 0 {
		s.send(NodeCoordinator, NodeForwarder, wireMsg{Type: "heartbeat", From: string(NodeCoordinator)})
		s.sendForwarderStatus(now)
		s.updateOperatingMode(now)
	}
	s.scoreTick(now)
}

// stopReasonRiskMode is the latch owned by the continuous-risk response (kept
// separate from coordinator pause commands so a mode relaxation cannot clear
// an operator's pause).
const stopReasonRiskMode = "live-risk-mode"

// updateOperatingMode derives the operating mode from the live risk register
// (ISO/SAE 21434 continuous activities) and drives the forwarder's
// security-response latches.
func (s *Site) updateOperatingMode(now time.Duration) {
	if s.assessor == nil {
		return
	}
	s.riskScratch = s.assessor.CurrentInto(s.riskScratch, now)
	mode := risk.RecommendMode(s.riskScratch)
	if mode == s.mode {
		return
	}
	if mode > s.mode {
		s.publishSecurityResponse(SecurityResponse{
			At:     now,
			Kind:   ResponseModeEscalation,
			Detail: fmt.Sprintf("%s -> %s", s.mode, mode),
		})
	}
	s.publishModeChange(ModeChange{At: now, From: s.mode.String(), To: mode.String()})
	s.mode = mode
	switch mode {
	case risk.ModeSafeStop:
		s.forwarder.SetStop(stopReasonRiskMode, true)
		s.forwarder.SetSlow(stopReasonRiskMode, true)
	case risk.ModeRestricted:
		s.forwarder.SetStop(stopReasonRiskMode, false)
		s.forwarder.SetSlow(stopReasonRiskMode, true)
	case risk.ModeNormal:
		s.forwarder.SetStop(stopReasonRiskMode, false)
		s.forwarder.SetSlow(stopReasonRiskMode, false)
	}
}

func ticksPerSecond(dt time.Duration) int {
	n := int(time.Second / dt)
	if n < 1 {
		return 1
	}
	return n
}

// moveWorkers advances each worker toward its waypoint; on arrival a new
// waypoint is drawn near the harvest site, occasionally crossing toward the
// forwarder (the hazardous interaction the safety function exists for).
func (s *Site) moveWorkers(dt time.Duration) {
	for _, w := range s.workers {
		if w.pos.Dist(w.target) < 1 {
			if s.workerRand.Bool(0.12) {
				// Approach the machine corridor.
				jitter := geo.V(s.workerRand.Range(-6, 6), s.workerRand.Range(-6, 6))
				w.target = s.forwarder.Pose.Pos.Add(jitter)
			} else {
				w.target = s.harvest.Add(geo.V(s.workerRand.Range(-30, 30), s.workerRand.Range(-30, 30)))
			}
			continue
		}
		dir := w.target.Sub(w.pos).Norm()
		w.pos = w.pos.Add(dir.Scale(w.speed * dt.Seconds()))
	}
}

// droneTick keeps the drone orbiting the forwarder and streams its aerial
// detections down — the Fig. 2 collaborative safety function.
func (s *Site) droneTick(dt time.Duration) {
	s.droneAngle += 0.4 * dt.Seconds()
	orbit := s.forwarder.Pose.Pos.Add(
		geo.V(math.Cos(s.droneAngle), math.Sin(s.droneAngle)).Scale(droneOrbitM))
	// Fly toward the orbit point at drone speed.
	dir := orbit.Sub(s.drone.Pose.Pos)
	maxStep := s.drone.MaxSpeedMPS * dt.Seconds()
	if dir.Len() > maxStep {
		dir = dir.Norm().Scale(maxStep)
	}
	s.drone.Pose.Pos = s.drone.Pose.Pos.Add(dir)

	dets := s.droneCam.Scan(s.drone.Pose.Pos, s.targets(), s.cfg.Weather)
	s.send(NodeDrone, NodeForwarder, wireMsg{
		Type:       "detections",
		From:       string(NodeDrone),
		Detections: dets,
	})
}

// targets snapshots the ground-truth sensor targets into a reused scratch
// buffer; the result is valid until the next call.
func (s *Site) targets() []sensors.Target {
	out := s.scratchTargets[:0]
	for _, w := range s.workers {
		out = append(out, sensors.Target{ID: w.id, Pos: w.pos})
	}
	s.scratchTargets = out
	return out
}

func (s *Site) forwarderTick(now time.Duration, dt time.Duration) {
	s.updateLocalization(now)
	s.updateCommsFailSafe(now)
	s.updatePerception(now)
	s.missionStep(now, dt)
}

// updateLocalization samples GNSS, maintains the believed position, and runs
// the plausibility guard when enabled.
func (s *Site) updateLocalization(now time.Duration) {
	reading := s.fwGNSS.Sample(s.forwarder.Pose.Pos)
	verdict := s.fwGuard.Check(reading, now.Seconds())

	if s.cfg.Profile.GNSSGuard {
		// Fail-safe: untrusted localization latches a nav-integrity stop.
		s.setFailSafe(now, machine.StopReasonNav, &s.navStopOn, !verdict.Trustworthy)
		if verdict.Trustworthy && reading.HasFix {
			s.believed = reading.Pos
		}
	} else if reading.HasFix {
		// Unguarded stack trusts whatever arrives (the spoofing victim).
		s.believed = reading.Pos
	}
	// Without a fix and without a guard the forwarder dead-reckons on the
	// last believed position.
	s.gnssErr = s.believed.Sub(s.forwarder.Pose.Pos)

	s.lastVerdictOK, s.lastVerdictWhy = verdict.Trustworthy, verdict.Reason
}

func (s *Site) updateCommsFailSafe(now time.Duration) {
	if !s.cfg.Profile.CommsFailSafe {
		return
	}
	s.setFailSafe(now, machine.StopReasonComms, &s.commsStopOn, s.watchdog.Expired(now))
}

// setFailSafe drives a fail-safe stop latch and publishes a SafetyEvent on
// each transition. latched is the site-side shadow of the latch state (the
// machine dedups internally, but transitions are an event concern).
func (s *Site) setFailSafe(now time.Duration, reason string, latched *bool, on bool) {
	if on != *latched {
		*latched = on
		kind := SafetyFailSafeReleased
		if on {
			kind = SafetyFailSafeEngaged
		}
		s.publishSafety(SafetyEvent{At: now, Kind: kind, Detail: reason})
	}
	s.forwarder.SetStop(reason, on)
}

// updatePerception fuses local sensors with (fresh) drone detections and
// drives the protective fields. Detections accumulate in a site-owned
// scratch buffer (each sensor's Scan result is itself a reused buffer, so
// the copies here are what decouple their lifetimes).
func (s *Site) updatePerception(now time.Duration) {
	targets := s.targets()
	pos := s.forwarder.Pose.Pos
	dets := s.scratchDets[:0]
	dets = append(dets, s.fwLidar.Scan(pos, targets, s.cfg.Weather)...)
	dets = append(dets, s.fwCamera.Scan(pos, targets, s.cfg.Weather)...)
	dets = append(dets, s.fwUltra.Scan(pos, targets, s.cfg.Weather)...)
	if s.cfg.DroneEnabled && now-s.droneDetsAt <= droneStaleness {
		dets = append(dets, s.droneDets...)
	}
	s.scratchDets = dets
	s.tracker.Update(now, dets)

	s.scratchPositions = s.tracker.AppendConfirmedPositions(
		s.scratchPositions[:0], pos, s.safety.WarningRadiusM+5)
	s.safety.Assess(now, s.scratchPositions)
}

// missionStep advances the haul cycle. Navigation control operates in the
// believed (GNSS) frame: under an undetected spoof the control error steers
// the true position off course — exactly the hazardous effect the guard and
// the E5 experiment quantify.
func (s *Site) missionStep(now time.Duration, dt time.Duration) {
	switch s.mission {
	case phaseToHarvest, phaseToLanding:
		s.drive(dt)
		goal := s.harvest
		if s.mission == phaseToLanding {
			goal = s.landing
		}
		if s.believed.Dist(goal) <= arriveRadiusM || s.navDone() {
			detail := "phase -> loading"
			if s.mission == phaseToHarvest {
				s.mission = phaseLoading
				s.phaseLeft = s.cfg.LoadTime
				s.forwarder.SetState(machine.StateLoading)
			} else {
				s.mission = phaseUnloading
				s.phaseLeft = s.cfg.UnloadTime
				s.forwarder.SetState(machine.StateUnloading)
				detail = "phase -> unloading"
			}
			s.publishMissionPhase(MissionPhase{At: now, Phase: s.mission.String(), Detail: detail})
		}
	case phaseLoading:
		if s.forwarder.Stopped() {
			return // loading pauses while a person is in the field
		}
		s.phaseLeft -= dt
		if s.phaseLeft <= 0 {
			// Loading only succeeds if the machine is physically at the
			// harvest site (a spoofed machine "loads" thin air).
			s.loaded = s.forwarder.Pose.Pos.Dist(s.harvest) <= effectiveRadiusM
			s.mission = phaseToLanding
			s.planTo(s.landing, s.believed)
			s.forwarder.SetState(machine.StateDriving)
			detail := "phase -> to-landing (loaded=false)"
			if s.loaded {
				detail = "phase -> to-landing (loaded=true)"
			}
			s.publishMissionPhase(MissionPhase{At: now, Phase: s.mission.String(), Detail: detail})
		}
	case phaseUnloading:
		if s.forwarder.Stopped() {
			return
		}
		s.phaseLeft -= dt
		if s.phaseLeft <= 0 {
			atLanding := s.forwarder.Pose.Pos.Dist(s.landing) <= effectiveRadiusM
			if s.loaded && atLanding {
				s.metrics.LogsDelivered++
			} else {
				s.metrics.EmptyDeliveries++
			}
			delivered := s.loaded && atLanding
			s.loaded = false
			s.mission = phaseToHarvest
			s.planTo(s.harvest, s.believed)
			s.forwarder.SetState(machine.StateDriving)
			detail := "phase -> to-harvest (delivered=false)"
			if delivered {
				detail = "phase -> to-harvest (delivered=true)"
			}
			s.publishMissionPhase(MissionPhase{At: now, Phase: s.mission.String(), Detail: detail})
		}
	}
}

// drive moves the forwarder toward the current waypoint in the believed
// frame.
func (s *Site) drive(dt time.Duration) {
	speed := s.forwarder.EffectiveSpeed()
	if speed <= 0 {
		s.metrics.StoppedFor += dt
		return
	}
	if s.navDone() {
		return
	}
	wp := s.navPath[s.navIdx]
	if s.believed.Dist(wp) <= waypointRadiusM {
		s.navIdx++
		if s.navDone() {
			return
		}
		wp = s.navPath[s.navIdx]
	}
	// Control error in the believed frame, applied to the true position.
	dir := wp.Sub(s.believed).Norm()
	step := dir.Scale(speed * dt.Seconds())
	s.forwarder.Pose.Pos = s.forwarder.Pose.Pos.Add(step)
	s.forwarder.Pose.Heading = dir.Angle()
	// Believed position advances with odometry between GNSS fixes.
	s.believed = s.believed.Add(step)
	s.metrics.DistanceM += step.Len()
}

func (s *Site) navDone() bool { return s.navIdx >= len(s.navPath) }

func (s *Site) planTo(goal, from geo.Vec) {
	path, err := s.grid.FindPath(from, goal)
	if err != nil {
		path = []geo.Vec{goal}
	}
	s.navPath = path
	s.navIdx = 0
}

func (s *Site) sendForwarderStatus(now time.Duration) {
	s.send(NodeForwarder, NodeCoordinator, wireMsg{
		Type:    "status",
		From:    string(NodeForwarder),
		PosX:    s.believed.X,
		PosY:    s.believed.Y,
		State:   s.forwarder.State().String(),
		GNSSOK:  s.lastVerdictOK,
		GNSSWhy: s.lastVerdictWhy,
	})
	_ = now
}

// scoreTick assesses the tick's safety and navigation state and publishes
// it: safety transitions first, then the tick snapshot. The KPI
// accumulation itself lives in the built-in metricsObserver, so external
// subscribers read the exact stream the report is computed from.
func (s *Site) scoreTick(now time.Duration) {
	pos := s.forwarder.Pose.Pos
	minDist := math.Inf(1)
	for _, w := range s.workers {
		if d := w.pos.Dist(pos); d < minDist {
			minDist = d
		}
	}

	moving := s.forwarder.EffectiveSpeed() > 0.1 && s.forwarder.State() == machine.StateDriving
	unsafeNow := moving && minDist < DangerRadiusM
	collidingNow := unsafeNow && minDist < CollisionRadiusM
	if unsafeNow && !s.unsafe {
		s.publishSafety(SafetyEvent{At: now, Kind: SafetyUnsafeEnter, MinWorkerDistM: minDist})
	}
	if !unsafeNow && s.unsafe {
		s.publishSafety(SafetyEvent{At: now, Kind: SafetyUnsafeExit})
	}
	if collidingNow {
		// Repeats every colliding tick: the collision KPI is tick-based.
		s.publishSafety(SafetyEvent{At: now, Kind: SafetyCollision, MinWorkerDistM: minDist, New: !s.colliding})
	}
	s.unsafe, s.colliding = unsafeNow, collidingNow

	snapDist := minDist
	if math.IsInf(snapDist, 1) {
		snapDist = -1 // no workers on site
	}
	alerts := 0
	if s.engine != nil {
		alerts = s.engine.Total()
	}
	s.lastTick = TickSnapshot{
		N:              s.tickNo,
		At:             now,
		Mission:        s.mission.String(),
		Mode:           s.OperatingMode().String(),
		TruePos:        pos,
		BelievedPos:    s.believed,
		NavErrM:        s.gnssErr.Len(),
		MinWorkerDistM: snapDist,
		Unsafe:         unsafeNow,
		Colliding:      collidingNow,
		Stopped:        s.forwarder.Stopped(),
		LogsDelivered:  s.metrics.LogsDelivered,
		Collisions:     s.metrics.Collisions,
		UnsafeEpisodes: s.metrics.UnsafeEpisodes,
		Alerts:         alerts,
	}
	s.publishTick(s.lastTick)
}
