package radio

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// refMedium is the oracle for the link budget: the delivery formulas written
// out in full, with no precomputed constants, the noise floor converted per
// delivery, interference summed a second time for the drop cause, the link
// distance computed twice, and nodes and jammers held in maps keyed by ID.
type refMedium struct {
	cfg     Config
	grid    *geo.Grid
	rand    *rng.Rand
	nodes   map[NodeID]*Node
	jammers map[string]*Jammer
}

func newRefMedium(grid *geo.Grid, r *rng.Rand, cfg Config) *refMedium {
	return &refMedium{
		cfg:     cfg.withDefaults(),
		grid:    grid,
		rand:    r.Derive("radio"),
		nodes:   make(map[NodeID]*Node),
		jammers: make(map[string]*Jammer),
	}
}

// attempt is one delivery attempt as the Observer sees it.
type attempt struct {
	to        NodeID
	sinrBits  uint64
	cause     DropCause
	delivered bool
}

// transmit returns the delivery attempts of p in the order Transmit makes
// them: receivers by sorted ID.
func (m *refMedium) transmit(p Packet) []attempt {
	tx := m.nodes[p.From]
	ids := make([]NodeID, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	txPos := tx.Pos()
	var out []attempt
	for _, id := range ids {
		rx := m.nodes[id]
		if id == p.From || rx.Channel != tx.Channel || (p.To != Broadcast && p.To != id) {
			continue
		}
		if !rx.Online {
			out = append(out, attempt{to: id, sinrBits: math.Float64bits(0), cause: DropOffline})
			continue
		}
		rxPos := rx.Pos()
		sinr := m.sinrDB(tx.TxPowerDBm, txPos, rxPos, tx.Channel)
		x := (sinr - m.cfg.SINRThresholdDB) / m.cfg.SINRSlopeDB
		if m.rand.Bool(1 / (1 + math.Exp(x))) {
			cause := DropWeakSignal
			if m.interferenceMW(rxPos, tx.Channel) > dbmToMW(m.cfg.NoiseFloorDBm)*10 {
				cause = DropJammed
			}
			out = append(out, attempt{to: id, sinrBits: math.Float64bits(sinr), cause: cause})
			continue
		}
		out = append(out, attempt{to: id, sinrBits: math.Float64bits(sinr), delivered: true})
	}
	return out
}

func (m *refMedium) sinrDB(txPowerDBm float64, txPos, rxPos geo.Vec, channel int) float64 {
	rxPower := txPowerDBm - m.pathLossDB(txPos, rxPos)
	rxPower += m.rand.Norm(0, m.cfg.ShadowSigmaDB)
	interfMW := m.interferenceMW(rxPos, channel)
	totalNoiseMW := dbmToMW(m.cfg.NoiseFloorDBm) + interfMW
	return rxPower - mwToDBm(totalNoiseMW)
}

func (m *refMedium) pathLossDB(a, b geo.Vec) float64 {
	d := a.Dist(b)
	if d < 1 {
		d = 1
	}
	loss := m.cfg.RefLossDB + 10*m.cfg.PathLossExponent*math.Log10(d)
	if m.grid != nil {
		const cap = 20
		n := 0
		steps := int(a.Dist(b)/m.grid.CellSize()) + 1
		for i := 1; i < steps && n < cap; i++ {
			if m.grid.OccludedAt(a.Lerp(b, float64(i)/float64(steps))) {
				n++
			}
		}
		loss += m.cfg.FoliageLossDB * float64(n)
	}
	return loss
}

// interferenceMW iterates the jammer map in random order. Each case keeps at
// most two jammers contributing at a receiver, and a two-term float sum does
// not depend on its order.
func (m *refMedium) interferenceMW(rxPos geo.Vec, channel int) float64 {
	var total float64
	for _, j := range m.jammers {
		if !j.Active || (!j.Wideband && j.Channel != channel) {
			continue
		}
		total += dbmToMW(j.PowerDBm - m.pathLossDB(j.Pos(), rxPos))
	}
	return total
}

func TestLinkBudgetMatchesReference(t *testing.T) {
	forest := func(t *testing.T) *geo.Grid {
		g, err := geo.NewGrid(100, 100, 2)
		if err != nil {
			t.Fatalf("NewGrid: %v", err)
		}
		for c := 10; c < 40; c += 3 {
			for r := 5; r < 45; r += 2 {
				g.Set(geo.C(c, r), geo.Tree)
			}
		}
		return g
	}
	jammer := func(id string, pos geo.Vec, ch int, wideband bool, dbm float64) *Jammer {
		return &Jammer{ID: id, Pos: func() geo.Vec { return pos }, Channel: ch, Wideband: wideband, PowerDBm: dbm, Active: true}
	}
	type setup struct {
		nodes   []*Node
		jammers []*Jammer
	}
	// Nodes a, a2, b, c and d on channel 1, e and f on channel 2; d is
	// offline and c is at the edge of range, so weak-signal, jammed and
	// offline drops all occur.
	base := func() []*Node {
		d := staticNode("d", geo.V(30, 30), 1)
		d.Online = false
		return []*Node{
			staticNode("a", geo.V(10, 10), 1),
			staticNode("a2", geo.V(10.3, 10.4), 1), // 0.5 m from a: the 1 m path-loss clamp
			staticNode("b", geo.V(60, 40), 1),
			staticNode("c", geo.V(190, 180), 1),
			d,
			staticNode("e", geo.V(20, 70), 2),
			staticNode("f", geo.V(70, 90), 2),
		}
	}
	cases := []struct {
		name   string
		nilGr  bool
		jammed bool // whether jammed drops must occur
		setup  func() setup
	}{
		{name: "no jammer", setup: func() setup { return setup{nodes: base()} }},
		{name: "narrowband on and off channel", jammed: true, setup: func() setup {
			return setup{nodes: base(), jammers: []*Jammer{
				jammer("on", geo.V(55, 45), 1, false, -10),
				jammer("off", geo.V(60, 85), 2, false, -10),
			}}
		}},
		{name: "wideband", jammed: true, setup: func() setup {
			return setup{nodes: base(), jammers: []*Jammer{jammer("wb", geo.V(40, 40), 5, true, 5)}}
		}},
		{name: "underflowing jammer", setup: func() setup {
			// 10^(-400/1) underflows to 0 mW: the jammer is active and on
			// channel, yet the interference sum is exactly 0.
			return setup{nodes: base(), jammers: []*Jammer{jammer("faint", geo.V(50, 50), 1, true, -4000)}}
		}},
		{name: "nil grid", jammed: true, nilGr: true, setup: func() setup {
			return setup{nodes: base(), jammers: []*Jammer{jammer("wb", geo.V(40, 40), 1, true, 0)}}
		}},
		{name: "replaced node and jammer", jammed: true, setup: func() setup {
			moved := staticNode("b", geo.V(12, 14), 2) // b moves next to e's channel
			back := staticNode("e", geo.V(80, 80), 1)  // e joins channel 1
			return setup{
				nodes: append(base(), moved, back),
				jammers: []*Jammer{
					jammer("j", geo.V(5, 5), 2, false, 30),
					jammer("j", geo.V(70, 70), 1, false, 0),
				},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var grid *geo.Grid
			if !tc.nilGr {
				grid = forest(t)
			}
			cfg := Config{ShadowSigmaDB: 4}
			m := NewMedium(simclock.New(), grid, rng.New(11), cfg)
			ref := newRefMedium(grid, rng.New(11), cfg)
			s := tc.setup()
			for _, n := range s.nodes {
				m.AddNode(n)
				ref.nodes[n.ID] = n
			}
			for _, j := range s.jammers {
				m.AddJammer(j)
				ref.jammers[j.ID] = j
			}
			var got []attempt
			m.Observer = func(_ Packet, to NodeID, sinr float64, cause DropCause) {
				got = append(got, attempt{to: to, sinrBits: math.Float64bits(sinr), cause: cause, delivered: cause == DropNone})
			}
			causes := map[DropCause]int{}
			for i := 0; i < 400; i++ {
				from := []NodeID{"a", "b", "c", "e"}[i%4]
				to := Broadcast
				if i%3 == 0 {
					to = "b"
				}
				p := Packet{From: from, To: to, Size: 64}
				got = got[:0]
				if err := m.Transmit(p); err != nil {
					t.Fatalf("Transmit: %v", err)
				}
				want := ref.transmit(p)
				if len(got) != len(want) {
					t.Fatalf("packet %d: %d attempts, reference %d", i, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("packet %d attempt %d: got %+v (SINR %v), reference %+v (SINR %v)", i, k,
							got[k], math.Float64frombits(got[k].sinrBits), want[k], math.Float64frombits(want[k].sinrBits))
					}
					causes[want[k].cause]++
				}
			}
			if causes[DropNone] == 0 || causes[DropOffline] == 0 || causes[DropWeakSignal] == 0 ||
				(causes[DropJammed] > 0) != tc.jammed {
				t.Fatalf("cause mix %v does not exercise the case (jammed drops wanted: %v)", causes, tc.jammed)
			}
		})
	}
}
