// Package netsim implements the link/session layer of the worksite network on
// top of the radio medium: frames, association, and 802.11-style
// de-authentication.
//
// The de-auth attack called out by the paper's mining-industry survey
// ("Wi-Fi De-Auth attacks to disconnect AHS vehicles from the network,
// disrupting operations") is representable only if management frames exist as
// first-class objects, so this layer models them explicitly. Management-frame
// protection (the 802.11w countermeasure) is a per-adapter option: with it
// enabled, de-auth frames carry an HMAC over a site-wide management key and
// forged frames are rejected and surfaced to the IDS.
package netsim

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/radio"
)

// FrameKind classifies a link-layer frame.
type FrameKind int

// Frame kinds.
const (
	FrameData FrameKind = iota + 1
	FrameAssocReq
	FrameAssocResp
	FrameDeauth
	FrameBeacon
)

// String returns a short kind label.
func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "data"
	case FrameAssocReq:
		return "assoc-req"
	case FrameAssocResp:
		return "assoc-resp"
	case FrameDeauth:
		return "deauth"
	case FrameBeacon:
		return "beacon"
	default:
		return fmt.Sprintf("frame(%d)", int(k))
	}
}

// Frame is a link-layer protocol data unit. Src is the *claimed* sender — the
// radio layer does not authenticate it, which is exactly what spoofing
// attacks exploit.
type Frame struct {
	Kind    FrameKind
	Src     radio.NodeID
	Dst     radio.NodeID
	Seq     uint64
	Payload []byte
	// MIC is the management integrity check for protected management frames.
	MIC []byte
}

const (
	frameHeaderSize = 24
	micSize         = 8
)

// wireSize approximates the frame's on-air size in bytes.
func (f Frame) wireSize() int { return frameHeaderSize + len(f.Payload) + len(f.MIC) }

// pooledFrame is the recycled over-the-air representation of adapter-sent
// frames: the payload is copied into frame-owned storage and the medium's
// reference counting returns the frame to its adapter's pool once the last
// scheduled delivery has run. Capturing observers must deep-copy via
// SnapshotFrame before retaining one.
type pooledFrame struct {
	Frame
	refs int
	pool *framePool
	buf  []byte // payload backing storage, reused across sends
}

var _ radio.Refcounted = (*pooledFrame)(nil)

// Retain implements radio.Refcounted.
func (f *pooledFrame) Retain() { f.refs++ }

// Release implements radio.Refcounted.
func (f *pooledFrame) Release() {
	f.refs--
	if f.refs == 0 {
		f.pool.put(f)
	}
}

type framePool struct {
	free []*pooledFrame
}

func (p *framePool) get() *pooledFrame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		f.refs = 1
		return f
	}
	return &pooledFrame{refs: 1, pool: p}
}

func (p *framePool) put(f *pooledFrame) {
	buf := f.buf
	f.Frame = Frame{}
	f.buf = buf[:0]
	p.free = append(p.free, f)
}

// frameView extracts the link-layer frame carried by a packet, pooled or
// not. The returned value shares the payload storage of an in-flight pooled
// frame: it is valid during a synchronous delivery callback, but must be
// deep-copied (SnapshotFrame) before being retained.
func frameView(p radio.Packet) (Frame, bool) {
	switch v := p.Payload.(type) {
	case *pooledFrame:
		return v.Frame, true
	case Frame:
		return v, true
	case *Frame:
		return *v, true
	default:
		return Frame{}, false
	}
}

// SnapshotFrame extracts the frame carried by a packet as a retainable deep
// copy (payload and MIC storage owned by the caller) — the capture primitive
// for recording observers, which may hold frames long after the in-flight
// pooled original has been recycled.
func SnapshotFrame(p radio.Packet) (Frame, bool) {
	f, ok := frameView(p)
	if !ok {
		return Frame{}, false
	}
	f.Payload = append([]byte(nil), f.Payload...)
	f.MIC = append([]byte(nil), f.MIC...)
	return f, true
}

// Stats aggregates per-adapter counters.
type Stats struct {
	FramesSent       int64 `json:"framesSent"`
	FramesReceived   int64 `json:"framesReceived"`
	DataDelivered    int64 `json:"dataDelivered"`
	DataRejected     int64 `json:"dataRejected"` // data from non-associated peers
	DeauthsAccepted  int64 `json:"deauthsAccepted"`
	DeauthsRejected  int64 `json:"deauthsRejected"` // bad MIC under protected mgmt
	AssocEstablished int64 `json:"assocEstablished"`
}

// Adapter is a worksite network interface bound to one radio node.
// It is single-threaded under the simulation scheduler.
type Adapter struct {
	id     radio.NodeID
	medium *radio.Medium

	protectedMgmt bool
	mgmtKey       []byte

	links  map[radio.NodeID]*link
	txSeq  uint64
	stats  Stats
	online bool
	pool   framePool

	// OnMessage receives data payloads from associated peers.
	OnMessage func(from radio.NodeID, payload []byte)
	// OnDeauth is invoked when a de-auth frame addressed to this adapter is
	// processed; authentic reports whether it passed management protection
	// (always true when protection is disabled — the attack's premise).
	OnDeauth func(from radio.NodeID, authentic bool)
	// OnMgmtReject is invoked when a protected management frame fails its MIC
	// check; the IDS subscribes here.
	OnMgmtReject func(f Frame)
	// OnAssociated is invoked when a link reaches the associated state.
	OnAssociated func(peer radio.NodeID)
}

type link struct {
	associated bool
	rxSeq      uint64
}

// Options configures an adapter.
type Options struct {
	// ProtectedMgmt enables 802.11w-style management-frame protection.
	ProtectedMgmt bool
	// MgmtKey is the site-wide management key; required when ProtectedMgmt
	// is enabled.
	MgmtKey []byte
}

// NewAdapter creates an adapter for the radio node with the given ID, which
// must already be registered on the medium. The node's Recv hook is taken
// over by the adapter.
func NewAdapter(medium *radio.Medium, id radio.NodeID, opts Options) (*Adapter, error) {
	node, ok := medium.Node(id)
	if !ok {
		return nil, fmt.Errorf("new adapter: radio node %q not registered", id)
	}
	if opts.ProtectedMgmt && len(opts.MgmtKey) == 0 {
		return nil, fmt.Errorf("new adapter %q: protected management requires a key", id)
	}
	a := &Adapter{
		id:            id,
		medium:        medium,
		protectedMgmt: opts.ProtectedMgmt,
		mgmtKey:       append([]byte(nil), opts.MgmtKey...),
		links:         make(map[radio.NodeID]*link),
		online:        true,
	}
	node.Recv = a.receive
	return a, nil
}

// ID returns the adapter's node ID.
func (a *Adapter) ID() radio.NodeID { return a.id }

// Stats returns a copy of the adapter counters.
func (a *Adapter) Stats() Stats { return a.stats }

// Associated reports whether a link to peer is established.
func (a *Adapter) Associated(peer radio.NodeID) bool {
	l, ok := a.links[peer]
	return ok && l.associated
}

// Associate initiates association with peer by sending an AssocReq. The link
// becomes usable when the peer's AssocResp arrives.
func (a *Adapter) Associate(peer radio.NodeID) error {
	return a.send(Frame{Kind: FrameAssocReq, Src: a.id, Dst: peer})
}

// SendData transmits payload to an associated peer. It returns an error if
// the link is not associated (the upper layer may then re-associate).
func (a *Adapter) SendData(peer radio.NodeID, payload []byte) error {
	if !a.Associated(peer) {
		return fmt.Errorf("send data %s->%s: link not associated", a.id, peer)
	}
	return a.send(Frame{Kind: FrameData, Src: a.id, Dst: peer, Payload: payload})
}

// Deauth tears down the link with peer, notifying it with a (protected, if
// configured) de-auth frame.
func (a *Adapter) Deauth(peer radio.NodeID) error {
	delete(a.links, peer)
	f := Frame{Kind: FrameDeauth, Src: a.id, Dst: peer}
	if a.protectedMgmt {
		f.MIC = mgmtMIC(a.mgmtKey, f)
	}
	return a.send(f)
}

// TuneTo retunes this adapter's radio to peer's current channel and reports
// whether the peer was found. It models a channel-scanning adversary (and,
// for legitimate nodes, re-joining after a coordinated hop).
func (a *Adapter) TuneTo(peer radio.NodeID) bool {
	target, ok := a.medium.Node(peer)
	if !ok {
		return false
	}
	self, ok := a.medium.Node(a.id)
	if !ok {
		return false
	}
	self.Channel = target.Channel
	return true
}

// InjectRaw transmits an arbitrary frame without adapter bookkeeping. It
// exists for the attack framework: a forger claims any Src it likes.
func (a *Adapter) InjectRaw(f Frame) error {
	return a.medium.Transmit(radio.Packet{
		From:    a.id,
		To:      f.Dst,
		Size:    f.wireSize(),
		Payload: f,
	})
}

func (a *Adapter) send(f Frame) error {
	a.txSeq++
	f.Seq = a.txSeq
	a.stats.FramesSent++
	// Ship a pooled frame: the payload is copied into frame-owned storage so
	// the caller's buffer is reusable the moment Transmit returns, and the
	// frame itself recycles once the last scheduled delivery lands.
	pf := a.pool.get()
	pf.Frame = f
	if len(f.Payload) > 0 {
		pf.buf = append(pf.buf[:0], f.Payload...)
		pf.Frame.Payload = pf.buf
	}
	err := a.medium.Transmit(radio.Packet{
		From:    a.id,
		To:      f.Dst,
		Size:    f.wireSize(),
		Payload: pf,
	})
	pf.Release() // drop the sender's reference
	return err
}

func (a *Adapter) receive(p radio.Packet) {
	f, ok := frameView(p)
	if !ok {
		return
	}
	if f.Dst != a.id && f.Dst != radio.Broadcast {
		return
	}
	a.stats.FramesReceived++
	switch f.Kind {
	case FrameAssocReq:
		a.linkFor(f.Src).associated = true
		a.stats.AssocEstablished++
		resp := Frame{Kind: FrameAssocResp, Src: a.id, Dst: f.Src}
		if err := a.send(resp); err == nil && a.OnAssociated != nil {
			a.OnAssociated(f.Src)
		}
	case FrameAssocResp:
		l := a.linkFor(f.Src)
		if !l.associated {
			l.associated = true
			a.stats.AssocEstablished++
			if a.OnAssociated != nil {
				a.OnAssociated(f.Src)
			}
		}
	case FrameDeauth:
		a.handleDeauth(f)
	case FrameData:
		l, ok := a.links[f.Src]
		if !ok || !l.associated {
			a.stats.DataRejected++
			return
		}
		l.rxSeq = f.Seq
		a.stats.DataDelivered++
		if a.OnMessage != nil {
			a.OnMessage(f.Src, f.Payload)
		}
	case FrameBeacon:
		// Beacons carry no state in this model.
	}
}

func (a *Adapter) handleDeauth(f Frame) {
	if a.protectedMgmt {
		if !hmac.Equal(f.MIC, mgmtMIC(a.mgmtKey, f)) {
			a.stats.DeauthsRejected++
			if a.OnMgmtReject != nil {
				a.OnMgmtReject(f)
			}
			if a.OnDeauth != nil {
				a.OnDeauth(f.Src, false)
			}
			return
		}
	}
	delete(a.links, f.Src)
	a.stats.DeauthsAccepted++
	if a.OnDeauth != nil {
		a.OnDeauth(f.Src, true)
	}
}

func (a *Adapter) linkFor(peer radio.NodeID) *link {
	l, ok := a.links[peer]
	if !ok {
		l = &link{}
		a.links[peer] = l
	}
	return l
}

// mgmtMIC computes the truncated HMAC protecting management frames. The Seq
// field is excluded because it is assigned at send time after MIC
// computation; replay handling is the secure channel's job.
func mgmtMIC(key []byte, f Frame) []byte {
	mac := hmac.New(sha256.New, key)
	var kind [4]byte
	binary.BigEndian.PutUint32(kind[:], uint32(f.Kind))
	mac.Write(kind[:])
	mac.Write([]byte(f.Src))
	mac.Write([]byte{0})
	mac.Write([]byte(f.Dst))
	return mac.Sum(nil)[:micSize]
}
