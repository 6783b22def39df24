package worksite

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/pki"
	"repro/internal/radio"
	"repro/internal/risk"
	"repro/internal/rng"
	"repro/internal/securechan"
	"repro/internal/sensors"
)

// wireMsg is the application-layer envelope exchanged between worksite
// actors. Its JSON form is json.Marshal's, and json.Unmarshal decodes it.
// appendWireMsg (wirecodec.go) hand-codes that form and sentRing.record
// what json.Unmarshal makes of it, so a field or tag change here must be
// mirrored there; TestEncoderCasesCoverEveryField fails until the encoder
// cases exercise a new field.
type wireMsg struct {
	Type string `json:"type"` // heartbeat | status | detections | command
	From string `json:"from"`
	// Heartbeat/status fields.
	Seq     uint64  `json:"seq,omitempty"`
	PosX    float64 `json:"posX,omitempty"`
	PosY    float64 `json:"posY,omitempty"`
	State   string  `json:"state,omitempty"`
	GNSSOK  bool    `json:"gnssOk,omitempty"`
	GNSSWhy string  `json:"gnssWhy,omitempty"`
	// Detections payload (drone -> forwarder).
	Detections []sensors.Detection `json:"detections,omitempty"`
	// Command payload (coordinator -> machines; the injection target).
	Command string `json:"command,omitempty"`
}

// Command verbs. CommandClearStops is the dangerous one: it releases latched
// safety stops (legitimately used by the coordinator after an operator
// confirms the site is clear; catastrophically abused by command injection
// on an unauthenticated stack).
const (
	CommandPause      = "pause"
	CommandResume     = "resume"
	CommandClearStops = "clear-stops"
)

// link is one directed application link, from -> to, holding what both ends
// of a message need: the sender's adapter and secure-channel endpoint, the
// receiver's endpoint, and the ring of messages recently sent on it. send
// finds a link by {from, to}; each node's receive handler holds the links
// that end at it, so neither direction adds a map lookup.
type link struct {
	from, to radio.NodeID
	ad       *netsim.Adapter     // from's adapter
	seal     *securechan.Channel // from's endpoint; nil on the unsecured profile
	open     *securechan.Channel // to's endpoint; nil on the unsecured profile
	sent     sentRing
}

// linkPairs lists the node pairs that talk, initiator first: each pair gets
// a secure channel on the secured profile and a link in each direction.
func linkPairs(droneEnabled bool) [][2]radio.NodeID {
	pairs := [][2]radio.NodeID{
		{NodeCoordinator, NodeForwarder},
		{NodeCoordinator, NodeHarvester},
	}
	if droneEnabled {
		pairs = append(pairs,
			[2]radio.NodeID{NodeCoordinator, NodeDrone},
			[2]radio.NodeID{NodeForwarder, NodeDrone},
		)
	}
	return pairs
}

func (s *Site) commissionNetwork(sh *SharedSecurity) error {
	type radioSpec struct {
		id  radio.NodeID
		pos func() geo.Vec
	}
	specs := []radioSpec{
		{NodeCoordinator, s.staticPos(s.landing.Add(geo.V(-8, 0)))},
		{NodeForwarder, func() geo.Vec { return s.forwarder.Pose.Pos }},
		{NodeHarvester, s.staticPos(s.harvester.Pose.Pos)},
		{NodeAttacker, s.staticPos(geo.V(0.5*s.grid.Width(), 0.35*s.grid.Height()))},
	}
	if s.cfg.DroneEnabled {
		specs = append(specs, radioSpec{NodeDrone, func() geo.Vec { return s.drone.Pose.Pos }})
	}

	mgmtKey := []byte("agrarsense-site-mgmt-key-v1")
	for _, sp := range specs {
		s.med.AddNode(&radio.Node{
			ID:         sp.id,
			Pos:        sp.pos,
			Channel:    1,
			TxPowerDBm: 23,
			Online:     true,
		})
		opts := netsim.Options{}
		if s.cfg.Profile.ProtectedMgmt && sp.id != NodeAttacker {
			opts = netsim.Options{ProtectedMgmt: true, MgmtKey: mgmtKey}
		}
		ad, err := netsim.NewAdapter(s.med, sp.id, opts)
		if err != nil {
			return fmt.Errorf("worksite: %w", err)
		}
		s.adapters[sp.id] = ad
	}

	pairs := linkPairs(s.cfg.DroneEnabled)
	s.links = make(map[chanKey]*link, 2*len(pairs))
	inbound := make(map[radio.NodeID][]*link, len(specs))
	for _, p := range pairs {
		for _, l := range []*link{{from: p[0], to: p[1]}, {from: p[1], to: p[0]}} {
			l.ad = s.adapters[l.from]
			s.links[chanKey{l.from, l.to}] = l
			inbound[l.to] = append(inbound[l.to], l)
		}
	}

	s.linkNames = make(map[chanKey]string, len(specs)*(len(specs)-1)/2)
	for _, a := range specs {
		for _, b := range specs {
			if a.id < b.id {
				s.linkNames[chanKey{a.id, b.id}] = string(a.id) + "<->" + string(b.id)
			}
		}
	}

	if s.cfg.Profile.IDSEnabled {
		s.commissionIDS()
	}
	if s.cfg.Profile.SecureChannels {
		if err := s.commissionPKI(sh.bundle); err != nil {
			return err
		}
	}
	s.wireMessageHandlers(inbound)
	return s.associateLinks()
}

func (s *Site) staticPos(p geo.Vec) func() geo.Vec {
	return func() geo.Vec { return p }
}

// commissionPKI adopts the commissioned security bundle: the pairwise
// secure channels, established over a trusted link (the depot) at
// commissioning, mirroring real fleet onboarding; subsequent records travel
// over the air. The expensive half — keygen, issuance, handshakes —
// happened once in CommissionSecurity, so this session only forks the
// established channels. A fork of endpoint {local, peer} seals on the link
// local -> peer and opens on the link peer -> local.
func (s *Site) commissionPKI(b *securityBundle) error {
	// Sorted keys: should two forks ever fail, the reported error must not
	// depend on map iteration order.
	keys := make([]chanKey, 0, len(b.channels))
	for k := range b.channels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].local != keys[j].local {
			return keys[i].local < keys[j].local
		}
		return keys[i].peer < keys[j].peer
	})
	for _, k := range keys {
		fork, err := b.channels[k].Fork()
		if err != nil {
			return fmt.Errorf("worksite: fork channel %s->%s: %w", k.local, k.peer, err)
		}
		s.links[k].seal = fork
		s.links[chanKey{k.peer, k.local}].open = fork
	}
	return nil
}

// securityBundle is the output of security commissioning: the established
// pairwise channels, keyed from each endpoint's side.
type securityBundle struct {
	channels map[chanKey]*securechan.Channel
}

// buildSecurity is the seed-threaded security commissioning: CA keygen,
// identity issuance, and the pairwise handshakes, drawing from r's "pki" and
// "handshakes" streams. The handshakes run at virtual time zero, the
// commissioning instant (securechan's nil Now).
func buildSecurity(droneEnabled bool, r *rng.Rand) (*securityBundle, error) {
	ca, err := pki.NewCA("agrarsense-site-ca", r.Derive("pki"))
	if err != nil {
		return nil, fmt.Errorf("worksite: %w", err)
	}
	validity := 30 * 24 * time.Hour

	idents := make(map[radio.NodeID]pki.Identity)
	for _, spec := range []struct {
		id   radio.NodeID
		role pki.Role
	}{
		{NodeCoordinator, pki.RoleCoordinator},
		{NodeForwarder, pki.RoleMachine},
		{NodeHarvester, pki.RoleMachine},
		{NodeDrone, pki.RoleDrone},
	} {
		if spec.id == NodeDrone && !droneEnabled {
			continue
		}
		ident, err := ca.Issue(string(spec.id), spec.role, 0, validity)
		if err != nil {
			return nil, fmt.Errorf("worksite: %w", err)
		}
		idents[spec.id] = ident
	}

	verifier := pki.NewVerifier(ca.Cert(), ca.CRL())
	pairs := linkPairs(droneEnabled)
	b := &securityBundle{channels: make(map[chanKey]*securechan.Channel, 2*len(pairs))}
	hr := r.Derive("handshakes")
	for _, p := range pairs {
		init := securechan.NewInitiator(idents[p[0]], verifier, securechan.Options{
			Rand: hr.Derive(string(p[0]) + ">" + string(p[1])),
		})
		resp := securechan.NewResponder(idents[p[1]], verifier, securechan.Options{
			Rand: hr.Derive(string(p[1]) + "<" + string(p[0])),
		})
		if err := runPairing(init, resp); err != nil {
			return nil, fmt.Errorf("worksite: pairing %s-%s: %w", p[0], p[1], err)
		}
		b.channels[chanKey{p[0], p[1]}] = init
		b.channels[chanKey{p[1], p[0]}] = resp
	}
	return b, nil
}

// runPairing executes the 3-message handshake over the trusted commissioning
// link.
func runPairing(init, resp *securechan.Channel) error {
	m1, err := init.Start()
	if err != nil {
		return err
	}
	m2, err := resp.HandleHandshake(m1)
	if err != nil {
		return err
	}
	m3, err := init.HandleHandshake(m2)
	if err != nil {
		return err
	}
	if _, err := resp.HandleHandshake(m3); err != nil {
		return err
	}
	return nil
}

func (s *Site) commissionIDS() {
	s.engine = ids.DefaultEngine()
	if s.cfg.Profile.ContinuousRisk {
		uc := risk.BuildUseCase()
		assessor, err := risk.NewContinuousAssessor(&uc.Model, uc.FullControls())
		if err == nil {
			// Attack quiet for two minutes relaxes the live register (field
			// timescale, not the 21434 default office timescale).
			assessor.DecayAfter = 2 * time.Minute
			s.assessor = assessor
			s.mode = risk.ModeNormal
		}
	}
	s.engine.OnAlert = s.handleAlert

	// The IDS taps the medium promiscuously: it samples delivery success on
	// the coordinator's links (jamming signature) and is fed protocol
	// violations by the adapters below.
	s.med.Observer = func(p radio.Packet, to radio.NodeID, _ float64, cause radio.DropCause) {
		if cause == radio.DropOffline {
			return
		}
		if to != NodeCoordinator && p.From != NodeCoordinator {
			return
		}
		v := 0.0
		if cause == radio.DropNone {
			v = 1.0
		}
		s.engine.Ingest(ids.Event{
			Kind:   ids.EventLinkSample,
			At:     s.sched.Now(),
			Source: s.linkName(p.From, to),
			OK:     cause == radio.DropNone,
			Value:  v,
		})
	}
}

// handleAlert is the coordinator's security-response entry point: alerts
// feed the live risk register and, for link degradation, trigger the
// channel-agility countermeasure.
func (s *Site) handleAlert(a ids.Alert) {
	s.publishAlert(AlertRaised{At: a.At, Alert: a})
	if s.assessor != nil {
		s.assessor.ObserveAlertType(a.Type, a.At)
	}
	if s.cfg.Profile.ChannelAgility && a.Type == "link-degraded" {
		s.hopChannel(a.At)
	}
}

// hopChannelCooldown rate-limits coordinated channel hops.
const hopChannelCooldown = 30 * time.Second

// hopChannel moves every worksite radio (not the attacker's) to the next
// channel of the pre-shared hop sequence. A narrowband jammer keeps heating
// the old channel; a wideband jammer follows everywhere — exactly the
// escalation the risk model prices into CTRL-CHAN-AGILITY.
func (s *Site) hopChannel(now time.Duration) {
	if s.hops > 0 && now-s.lastHop < hopChannelCooldown {
		return
	}
	s.lastHop = now
	s.hops++
	s.publishSecurityResponse(SecurityResponse{
		At:     now,
		Kind:   ResponseChannelHop,
		Detail: fmt.Sprintf("hop #%d (link degradation)", s.hops),
	})
	for id := range s.adapters {
		if id == NodeAttacker {
			continue
		}
		if n, ok := s.med.Node(id); ok {
			n.Channel++
		}
	}
}

// linkName returns the canonical IDS label for the a<->b link from the table
// precomputed at commissioning, so per-packet ingest does not build a fresh
// string. Pairs outside the table (none in practice) fall back to concat.
func (s *Site) linkName(a, b radio.NodeID) string {
	if a > b {
		a, b = b, a
	}
	if name, ok := s.linkNames[chanKey{a, b}]; ok {
		return name
	}
	return string(a) + "<->" + string(b)
}

// wireMessageHandlers installs each worksite node's adapter callbacks;
// inbound holds, per node, the links that end at it.
func (s *Site) wireMessageHandlers(inbound map[radio.NodeID][]*link) {
	for id, ad := range s.adapters {
		if id == NodeAttacker {
			continue
		}
		id, ad, in := id, ad, inbound[id]
		ad.OnMessage = func(from radio.NodeID, payload []byte) {
			var l *link // nil: no link runs from the claimed source to id
			for _, c := range in {
				if c.from == from {
					l = c
					break
				}
			}
			s.handleAppPayload(l, id, from, payload)
		}
		ad.OnMgmtReject = func(f netsim.Frame) {
			s.ingestIDS(ids.Event{
				Kind:   ids.EventMgmtForgery,
				At:     s.sched.Now(),
				Source: string(id),
				Detail: fmt.Sprintf("claimed src %s", f.Src),
			})
		}
		ad.OnDeauth = func(from radio.NodeID, authentic bool) {
			s.ingestIDS(ids.Event{
				Kind:   ids.EventDeauth,
				At:     s.sched.Now(),
				Source: string(id),
				OK:     false,
				Detail: fmt.Sprintf("deauth claiming %s (authentic=%v)", from, authentic),
			})
		}
	}
}

func (s *Site) ingestIDS(ev ids.Event) {
	if s.engine != nil {
		s.engine.Ingest(ev)
	}
}

// associateLinks has the responder of each pair associate to its
// initiator.
func (s *Site) associateLinks() error {
	for _, p := range linkPairs(s.cfg.DroneEnabled) {
		if err := s.adapters[p[1]].Associate(p[0]); err != nil {
			return fmt.Errorf("worksite: associate %s->%s: %w", p[1], p[0], err)
		}
	}
	// Let association frames fly before the mission starts.
	return s.sched.Run(50 * time.Millisecond)
}

// send transmits an application message from -> to over their link,
// sealing it when the secured profile is active. Send errors are expected
// under attack (link torn down) and are absorbed as lost traffic. A message
// json.Marshal would reject (a NaN or infinite float) is dropped unsent.
//
// appendWireMsg encodes into the site's reused buffer, and the adapter
// copies the payload into its own frame storage before Transmit returns, so
// the buffer is free for the next message immediately. The link's sent ring
// keeps its own copy of the bytes with a snapshot of msg, so the receiver
// can skip parsing them back (see handleAppPayload).
func (s *Site) send(from, to radio.NodeID, msg wireMsg) {
	l := s.links[chanKey{from, to}]
	if l == nil {
		return
	}
	payload, ok := appendWireMsg(s.wireBuf[:0], &msg)
	s.wireBuf = payload
	if !ok {
		return
	}
	l.sent.record(payload, &msg)
	if s.cfg.Profile.SecureChannels {
		if l.seal == nil {
			return
		}
		sealed, err := l.seal.Seal(payload)
		if err != nil {
			return
		}
		payload = sealed
	}
	if err := l.ad.SendData(to, payload); err != nil {
		// Link torn down (e.g. by de-auth): attempt re-association so the
		// system can self-heal once the attack stops.
		_ = l.ad.Associate(to)
		s.metrics.SendFailures++
	}
}

// handleAppPayload authenticates (when secured) and dispatches an inbound
// application message at the receiving node. l is the link from the
// frame's claimed source to local, nil when there is none.
func (s *Site) handleAppPayload(l *link, local, from radio.NodeID, payload []byte) {
	if s.cfg.Profile.SecureChannels {
		if l == nil || l.open == nil {
			return
		}
		plain, err := l.open.Open(payload)
		if err != nil {
			kind := ids.EventDecryptFailure
			if errors.Is(err, securechan.ErrReplay) {
				kind = ids.EventReplayRejected
				s.metrics.ReplaysBlocked++
			} else {
				s.metrics.ForgeriesBlocked++
			}
			s.ingestIDS(ids.Event{
				Kind:   kind,
				At:     s.sched.Now(),
				Source: s.linkName(local, from),
				Detail: err.Error(),
			})
			return
		}
		payload = plain
	}
	// Decode once: a plaintext byte-equal to a message this site just sent
	// on the link dispatches that message's snapshot, which is exactly what
	// decoding the bytes would yield. Every other payload — replayed past
	// the ring, tampered, injected or attack-built — is decoded below, into
	// a fresh message: json.Unmarshal merges into whatever it is given.
	if l != nil {
		if m := l.sent.lookup(payload); m != nil {
			s.wireHits++
			s.dispatch(local, from, *m)
			return
		}
	}
	s.wireParses++
	var msg wireMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	s.dispatch(local, from, msg)
}

func (s *Site) dispatch(local, from radio.NodeID, msg wireMsg) {
	switch {
	case local == NodeForwarder && msg.Type == "heartbeat":
		s.watchdog.Beat(s.sched.Now())
	case local == NodeForwarder && msg.Type == "detections":
		// Copy out of the message: droneDets must stay valid across ticks,
		// and a ring snapshot's detections are reused when its slot is
		// recorded over.
		s.droneDets = append(s.droneDets[:0], msg.Detections...)
		s.droneDetsAt = s.sched.Now()
	case local == NodeForwarder && msg.Type == "command":
		s.handleCommand(msg)
	case local == NodeCoordinator && msg.Type == "status":
		// The coordinator relays machine-reported GNSS verdicts to the IDS.
		s.ingestIDS(ids.Event{
			Kind:   ids.EventGNSSVerdict,
			At:     s.sched.Now(),
			Source: msg.From,
			OK:     msg.GNSSOK,
			Detail: msg.GNSSWhy,
		})
	}
	_ = from
}

// handleCommand applies a coordinator command at the forwarder. On the
// unsecured stack the link layer cannot authenticate the sender, so forged
// commands from the attacker arrive here too — the unsafe consequence E5
// measures.
func (s *Site) handleCommand(msg wireMsg) {
	switch msg.Command {
	case CommandPause:
		s.forwarder.SetStop(machine.StopReasonSecurity, true)
	case CommandResume:
		s.forwarder.SetStop(machine.StopReasonSecurity, false)
	case CommandClearStops:
		s.metrics.CommandsApplied++
		for _, r := range s.forwarder.StopReasons() {
			s.forwarder.SetStop(r, false)
		}
	}
}
