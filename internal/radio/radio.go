// Package radio simulates the shared wireless medium of the forestry
// worksite.
//
// The paper's survey (Section IV-C, after Gaber et al.) identifies wireless
// communication as the dominant cybersecurity attack surface of autonomous
// haulage-style systems: frequency interference, channel utilisation, signal
// jamming. This package reproduces that surface at the physical abstraction
// those attacks target: a log-distance path-loss model with per-tree foliage
// attenuation, a noise floor, additive interference from jammers, and an
// SINR-driven packet error model. Everything above (frames, association,
// de-auth) lives in package netsim.
package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// NodeID identifies a radio on the worksite.
type NodeID string

// Broadcast addresses all nodes on the sender's channel.
const Broadcast NodeID = "*"

// Packet is an over-the-air transmission. The payload is opaque to the radio
// layer; Size drives airtime and is in bytes.
type Packet struct {
	From    NodeID
	To      NodeID
	Size    int
	Payload interface{}
}

// Refcounted is implemented by pooled packet payloads (the link layer's
// recycled frames). The medium retains one reference per scheduled delivery
// and releases it once the delivery callback has run, so the payload's owner
// can recycle it as soon as the last in-flight copy lands. Payloads that do
// not implement it are simply garbage-collected.
type Refcounted interface {
	Retain()
	Release()
}

// DropCause classifies why a packet failed to reach a receiver.
type DropCause int

// Drop causes.
const (
	DropNone DropCause = iota
	DropWeakSignal
	DropJammed
	DropOffline
)

// String returns a short cause label.
func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "delivered"
	case DropWeakSignal:
		return "weak-signal"
	case DropJammed:
		return "jammed"
	case DropOffline:
		return "offline"
	default:
		return fmt.Sprintf("drop(%d)", int(c))
	}
}

// Node is a radio endpoint. Pos is sampled at transmit time so moving
// machines are handled naturally. Recv is invoked on successful delivery.
type Node struct {
	ID         NodeID
	Pos        func() geo.Vec
	Channel    int
	TxPowerDBm float64
	Online     bool
	Recv       func(p Packet)
}

// Jammer is an interference source. While active it raises the interference
// power at every receiver on its channel (or on all channels if Wideband).
type Jammer struct {
	ID       string
	Pos      func() geo.Vec
	Channel  int
	Wideband bool
	PowerDBm float64
	Active   bool
}

// Config tunes the propagation model. Zero fields take the documented
// defaults from DefaultConfig.
type Config struct {
	// PathLossExponent is the log-distance exponent; forest terrain is harsher
	// than free space. Default 2.9.
	PathLossExponent float64
	// RefLossDB is the loss at 1 m. Default 40 dB (2.4 GHz-ish).
	RefLossDB float64
	// FoliageLossDB is the extra attenuation per occluding cell crossed by the
	// propagation path. Default 1.5 dB.
	FoliageLossDB float64
	// NoiseFloorDBm is the thermal noise floor. Default -96 dBm.
	NoiseFloorDBm float64
	// SINRThresholdDB is the 50% packet-error point. Default 10 dB.
	SINRThresholdDB float64
	// SINRSlopeDB controls how sharply PER falls around the threshold.
	// Default 2 dB.
	SINRSlopeDB float64
	// ShadowSigmaDB is the per-packet log-normal shadowing deviation.
	// Default 3 dB.
	ShadowSigmaDB float64
	// BitrateMbps sets frame airtime. Default 6 Mbps.
	BitrateMbps float64
	// PreambleTime is fixed per-frame overhead. Default 100 µs.
	PreambleTime time.Duration
}

// DefaultConfig returns the propagation defaults documented on Config.
func DefaultConfig() Config {
	return Config{
		PathLossExponent: 2.9,
		RefLossDB:        40,
		FoliageLossDB:    1.5,
		NoiseFloorDBm:    -96,
		SINRThresholdDB:  10,
		SINRSlopeDB:      2,
		ShadowSigmaDB:    3,
		BitrateMbps:      6,
		PreambleTime:     100 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PathLossExponent == 0 {
		c.PathLossExponent = d.PathLossExponent
	}
	if c.RefLossDB == 0 {
		c.RefLossDB = d.RefLossDB
	}
	if c.FoliageLossDB == 0 {
		c.FoliageLossDB = d.FoliageLossDB
	}
	if c.NoiseFloorDBm == 0 {
		c.NoiseFloorDBm = d.NoiseFloorDBm
	}
	if c.SINRThresholdDB == 0 {
		c.SINRThresholdDB = d.SINRThresholdDB
	}
	if c.SINRSlopeDB == 0 {
		c.SINRSlopeDB = d.SINRSlopeDB
	}
	if c.ShadowSigmaDB == 0 {
		c.ShadowSigmaDB = d.ShadowSigmaDB
	}
	if c.BitrateMbps == 0 {
		c.BitrateMbps = d.BitrateMbps
	}
	if c.PreambleTime == 0 {
		c.PreambleTime = d.PreambleTime
	}
	return c
}

// Stats aggregates medium-level counters.
type Stats struct {
	Transmissions int64            `json:"transmissions"`
	Deliveries    int64            `json:"deliveries"`
	Drops         map[string]int64 `json:"drops"`
}

// Medium is the shared wireless channel. It is single-threaded: all calls
// must come from simulation events on the owning scheduler.
//
// A delivery's link budget costs only what depends on the delivery; every
// result is bit-identical to evaluating the full formulas per packet:
//   - the noise floor in mW, its dBm round trip and the jam threshold (ten
//     times the floor) are constants of the Config, computed once in
//     NewMedium. When the summed interference is exactly 0 the SINR uses the
//     precomputed floor, because noiseMW + 0 == noiseMW;
//   - interference is summed once per delivery, and the drop cause reads that
//     same sum rather than walking the jammers (and their occlusion paths)
//     again;
//   - path loss computes the link distance once and hands it to the foliage
//     walk, which samples the same Lerp points over the live grid.
type Medium struct {
	cfg   Config
	sched *simclock.Scheduler
	grid  *geo.Grid // optional; nil disables foliage loss
	rand  *rng.Rand
	// nodes is the deterministic receiver iteration order: sorted by ID,
	// maintained by AddNode so Transmit neither sorts nor looks up per
	// receiver.
	nodes   []*Node
	jammers []*Jammer

	transmissions int64
	deliveries    int64
	drops         [DropOffline + 1]int64

	// noiseMW is the noise floor in mW, noiseDBm its dBm round trip and
	// jamMW the interference above which a loss counts as jammed.
	noiseMW, noiseDBm, jamMW float64

	// freeDeliveries recycles the scheduled delivery tasks.
	freeDeliveries []*delivery

	// Observer, if set, is called for every delivery attempt. The IDS taps
	// the medium here (promiscuous monitoring port).
	Observer func(p Packet, to NodeID, sinrDB float64, cause DropCause)
}

// NewMedium creates a medium over the given scheduler. grid may be nil.
func NewMedium(sched *simclock.Scheduler, grid *geo.Grid, r *rng.Rand, cfg Config) *Medium {
	cfg = cfg.withDefaults()
	noiseMW := dbmToMW(cfg.NoiseFloorDBm)
	return &Medium{
		cfg:      cfg,
		sched:    sched,
		grid:     grid,
		rand:     r.Derive("radio"),
		noiseMW:  noiseMW,
		noiseDBm: mwToDBm(noiseMW),
		jamMW:    noiseMW * 10,
	}
}

// find returns the index of the node with the given ID, or where it would be
// inserted, and whether it is registered.
func (m *Medium) find(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(m.nodes, id, func(n *Node, id NodeID) int { return cmp.Compare(n.ID, id) })
}

// AddNode registers a radio endpoint. Re-adding an ID replaces the node.
func (m *Medium) AddNode(n *Node) {
	i, exists := m.find(n.ID)
	if !exists {
		m.nodes = append(m.nodes, nil)
		copy(m.nodes[i+1:], m.nodes[i:])
	}
	m.nodes[i] = n
}

// Node returns the registered node with the given ID, if any.
func (m *Medium) Node(id NodeID) (*Node, bool) {
	if i, ok := m.find(id); ok {
		return m.nodes[i], true
	}
	return nil, false
}

// AddJammer registers an interference source. Re-adding an ID replaces the
// jammer.
func (m *Medium) AddJammer(j *Jammer) {
	for i, old := range m.jammers {
		if old.ID == j.ID {
			m.jammers[i] = j
			return
		}
	}
	m.jammers = append(m.jammers, j)
}

// Stats returns a copy of the medium counters. Drops holds only the causes
// that occurred, so it is empty (not nil) before the first drop.
func (m *Medium) Stats() Stats {
	out := Stats{
		Transmissions: m.transmissions,
		Deliveries:    m.deliveries,
		Drops:         make(map[string]int64),
	}
	for c, n := range m.drops {
		if n > 0 {
			out.Drops[DropCause(c).String()] = n
		}
	}
	return out
}

// Airtime returns the on-air duration of a packet of the given size.
func (m *Medium) Airtime(size int) time.Duration {
	bits := float64(size * 8)
	return m.cfg.PreambleTime + time.Duration(bits/m.cfg.BitrateMbps)*time.Microsecond
}

// Transmit sends p from its sender. Delivery (or silent loss) happens after
// the frame airtime. It returns an error if the sender is unknown or offline.
func (m *Medium) Transmit(p Packet) error {
	tx, ok := m.Node(p.From)
	if !ok {
		return fmt.Errorf("transmit: unknown node %q", p.From)
	}
	if !tx.Online {
		return fmt.Errorf("transmit: node %q is offline", p.From)
	}
	m.transmissions++
	airtime := m.Airtime(p.Size)
	txPos := tx.Pos()

	// m.nodes is the receivers in deterministic (sorted) order; deliveries
	// are deferred by airtime, so no node set mutation can happen mid-loop.
	for _, rx := range m.nodes {
		if rx.ID == p.From {
			continue
		}
		if rx.Channel != tx.Channel {
			continue
		}
		if p.To != Broadcast && p.To != rx.ID {
			continue
		}
		m.attemptDelivery(p, tx, rx, txPos, airtime)
	}
	return nil
}

func (m *Medium) attemptDelivery(p Packet, tx, rx *Node, txPos geo.Vec, airtime time.Duration) {
	if !rx.Online {
		m.drop(p, rx.ID, 0, DropOffline)
		return
	}
	sinr, interfMW := m.sinrDB(tx.TxPowerDBm, txPos, rx.Pos(), tx.Channel)
	perr := m.packetErrorProb(sinr)
	if m.rand.Bool(perr) {
		cause := DropWeakSignal
		if interfMW > m.jamMW {
			cause = DropJammed
		}
		m.drop(p, rx.ID, sinr, cause)
		return
	}
	m.deliveries++
	if m.Observer != nil {
		m.Observer(p, rx.ID, sinr, DropNone)
	}
	recv := rx.Recv
	if recv == nil {
		return
	}
	if rc, ok := p.Payload.(Refcounted); ok {
		rc.Retain()
	}
	d := m.getDelivery()
	*d = delivery{m: m, recv: recv, p: p}
	m.sched.AfterTask(airtime, d)
}

// delivery is a pooled scheduled frame arrival: one per receiver per
// transmission, recycled through the medium so the send path stays
// allocation-free.
type delivery struct {
	m    *Medium
	recv func(Packet)
	p    Packet
}

// RunEvent implements simclock.Task.
func (d *delivery) RunEvent(*simclock.Scheduler) {
	m, recv, p := d.m, d.recv, d.p
	// Return the task first: the receive callback may transmit (and so
	// schedule new deliveries) reusing this node.
	m.putDelivery(d)
	recv(p)
	if rc, ok := p.Payload.(Refcounted); ok {
		rc.Release()
	}
}

func (m *Medium) getDelivery() *delivery {
	if n := len(m.freeDeliveries); n > 0 {
		d := m.freeDeliveries[n-1]
		m.freeDeliveries[n-1] = nil
		m.freeDeliveries = m.freeDeliveries[:n-1]
		return d
	}
	return new(delivery)
}

func (m *Medium) putDelivery(d *delivery) {
	*d = delivery{}
	m.freeDeliveries = append(m.freeDeliveries, d)
}

func (m *Medium) drop(p Packet, to NodeID, sinr float64, cause DropCause) {
	m.drops[cause]++
	if m.Observer != nil {
		m.Observer(p, to, sinr, cause)
	}
}

// sinrDB draws the shadowing for one delivery and returns its SINR together
// with the interference it summed, which decides the drop cause.
func (m *Medium) sinrDB(txPowerDBm float64, txPos, rxPos geo.Vec, channel int) (sinr, interfMW float64) {
	rxPower := txPowerDBm - m.pathLossDB(txPos, rxPos)
	rxPower += m.rand.Norm(0, m.cfg.ShadowSigmaDB)
	interfMW = m.interferenceMW(rxPos, channel)
	noiseDBm := m.noiseDBm
	if interfMW != 0 {
		noiseDBm = mwToDBm(m.noiseMW + interfMW)
	}
	return rxPower - noiseDBm, interfMW
}

func (m *Medium) pathLossDB(a, b geo.Vec) float64 {
	dist := a.Dist(b)
	loss := m.cfg.RefLossDB + 10*m.cfg.PathLossExponent*math.Log10(max(dist, 1))
	if m.grid != nil {
		loss += m.cfg.FoliageLossDB * float64(m.occludingCells(a, b, dist))
	}
	return loss
}

// occludingCells counts tree/rock cells along the propagation path from a to
// b (dist apart), capped so a deep-forest link saturates rather than becoming
// -inf.
func (m *Medium) occludingCells(a, b geo.Vec, dist float64) int {
	const cap = 20
	n := 0
	steps := int(dist/m.grid.CellSize()) + 1
	for i := 1; i < steps; i++ {
		p := a.Lerp(b, float64(i)/float64(steps))
		if m.grid.OccludedAt(p) {
			n++
			if n >= cap {
				return cap
			}
		}
	}
	return n
}

func (m *Medium) interferenceMW(rxPos geo.Vec, channel int) float64 {
	var total float64
	for _, j := range m.jammers {
		if !j.Active {
			continue
		}
		if !j.Wideband && j.Channel != channel {
			continue
		}
		rx := j.PowerDBm - m.pathLossDB(j.Pos(), rxPos)
		total += dbmToMW(rx)
	}
	return total
}

// packetErrorProb maps SINR to packet error probability with a logistic
// curve centred at the configured threshold.
func (m *Medium) packetErrorProb(sinrDB float64) float64 {
	x := (sinrDB - m.cfg.SINRThresholdDB) / m.cfg.SINRSlopeDB
	return 1 / (1 + math.Exp(x))
}

func dbmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

func mwToDBm(mw float64) float64 {
	if mw <= 0 {
		return -300
	}
	return 10 * math.Log10(mw)
}
