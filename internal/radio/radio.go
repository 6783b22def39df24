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
	"fmt"
	"math"
	"sort"
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
type Medium struct {
	cfg     Config
	sched   *simclock.Scheduler
	grid    *geo.Grid // optional; nil disables foliage loss
	rand    *rng.Rand
	nodes   map[NodeID]*Node
	jammers map[string]*Jammer
	stats   Stats
	// order is the deterministic receiver iteration order (sorted node IDs),
	// maintained on Add/RemoveNode so Transmit does not sort per packet.
	order []NodeID
	// freeDeliveries recycles the scheduled delivery tasks.
	freeDeliveries []*delivery

	// Observer, if set, is called for every delivery attempt. The IDS taps
	// the medium here (promiscuous monitoring port).
	Observer func(p Packet, to NodeID, sinrDB float64, cause DropCause)
}

// NewMedium creates a medium over the given scheduler. grid may be nil.
func NewMedium(sched *simclock.Scheduler, grid *geo.Grid, r *rng.Rand, cfg Config) *Medium {
	return &Medium{
		cfg:     cfg.withDefaults(),
		sched:   sched,
		grid:    grid,
		rand:    r.Derive("radio"),
		nodes:   make(map[NodeID]*Node),
		jammers: make(map[string]*Jammer),
		stats:   Stats{Drops: make(map[string]int64)},
	}
}

// AddNode registers a radio endpoint. Re-adding an ID replaces the node.
func (m *Medium) AddNode(n *Node) {
	if _, exists := m.nodes[n.ID]; !exists {
		i := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= n.ID })
		m.order = append(m.order, "")
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = n.ID
	}
	m.nodes[n.ID] = n
}

// RemoveNode unregisters a radio endpoint.
func (m *Medium) RemoveNode(id NodeID) {
	if _, exists := m.nodes[id]; exists {
		i := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
		if i < len(m.order) && m.order[i] == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
		}
	}
	delete(m.nodes, id)
}

// Node returns the registered node with the given ID, if any.
func (m *Medium) Node(id NodeID) (*Node, bool) {
	n, ok := m.nodes[id]
	return n, ok
}

// AddJammer registers an interference source.
func (m *Medium) AddJammer(j *Jammer) { m.jammers[j.ID] = j }

// RemoveJammer unregisters an interference source.
func (m *Medium) RemoveJammer(id string) { delete(m.jammers, id) }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats {
	out := Stats{
		Transmissions: m.stats.Transmissions,
		Deliveries:    m.stats.Deliveries,
		Drops:         make(map[string]int64, len(m.stats.Drops)),
	}
	for k, v := range m.stats.Drops {
		out.Drops[k] = v
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
	tx, ok := m.nodes[p.From]
	if !ok {
		return fmt.Errorf("transmit: unknown node %q", p.From)
	}
	if !tx.Online {
		return fmt.Errorf("transmit: node %q is offline", p.From)
	}
	m.stats.Transmissions++
	airtime := m.Airtime(p.Size)
	txPos := tx.Pos()

	// m.order is the receivers in deterministic (sorted) order; deliveries
	// are deferred by airtime, so no node set mutation can happen mid-loop.
	for _, id := range m.order {
		if id == p.From {
			continue
		}
		rx := m.nodes[id]
		if rx.Channel != tx.Channel {
			continue
		}
		if p.To != Broadcast && p.To != id {
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
	rxPos := rx.Pos()
	sinr := m.sinrDB(tx.TxPowerDBm, txPos, rxPos, tx.Channel)
	perr := m.packetErrorProb(sinr)
	if m.rand.Bool(perr) {
		cause := DropWeakSignal
		if m.interferenceMW(rxPos, tx.Channel) > dbmToMW(m.cfg.NoiseFloorDBm)*10 {
			cause = DropJammed
		}
		m.drop(p, rx.ID, sinr, cause)
		return
	}
	m.stats.Deliveries++
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
	m.stats.Drops[cause.String()]++
	if m.Observer != nil {
		m.Observer(p, to, sinr, cause)
	}
}

// SINRBetween reports the current SINR in dB from node a to node b, for
// diagnostics and IDS anomaly baselines. It returns false if either node is
// missing.
func (m *Medium) SINRBetween(a, b NodeID) (float64, bool) {
	tx, ok1 := m.nodes[a]
	rx, ok2 := m.nodes[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	return m.sinrDB(tx.TxPowerDBm, tx.Pos(), rx.Pos(), tx.Channel), true
}

func (m *Medium) sinrDB(txPowerDBm float64, txPos, rxPos geo.Vec, channel int) float64 {
	rxPower := txPowerDBm - m.pathLossDB(txPos, rxPos)
	rxPower += m.rand.Norm(0, m.cfg.ShadowSigmaDB)
	interfMW := m.interferenceMW(rxPos, channel)
	totalNoiseMW := dbmToMW(m.cfg.NoiseFloorDBm) + interfMW
	return rxPower - mwToDBm(totalNoiseMW)
}

func (m *Medium) pathLossDB(a, b geo.Vec) float64 {
	d := a.Dist(b)
	if d < 1 {
		d = 1
	}
	loss := m.cfg.RefLossDB + 10*m.cfg.PathLossExponent*math.Log10(d)
	if m.grid != nil {
		loss += m.cfg.FoliageLossDB * float64(m.occludingCells(a, b))
	}
	return loss
}

// occludingCells counts tree/rock cells along the propagation path, capped so
// a deep-forest link saturates rather than becoming -inf.
func (m *Medium) occludingCells(a, b geo.Vec) int {
	const cap = 20
	n := 0
	steps := int(a.Dist(b)/m.grid.CellSize()) + 1
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
