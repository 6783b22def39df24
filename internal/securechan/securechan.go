// Package securechan implements the authenticated, encrypted channel used for
// all machine-to-machine communication on the secured worksite.
//
// The paper's pathway requires that "attacks on communication" (Section
// III-B) cannot inject or replay commands: every link is mutually
// authenticated against the worksite PKI and encrypted. The handshake is a
// SIGMA-style 3-message exchange (X25519 ephemeral ECDH, certificate
// signatures over the transcript, HKDF key derivation) and the record layer
// is AES-256-GCM with monotonic sequence numbers (replay rejection) and
// periodic key ratcheting.
//
// The package is transport-agnostic: handshake messages and records are byte
// slices the caller moves over netsim data frames.
package securechan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/pki"
)

// Channel errors, matchable with errors.Is.
var (
	ErrNotEstablished = errors.New("channel not established")
	ErrHandshake      = errors.New("handshake failure")
	ErrPeerAuth       = errors.New("peer authentication failed")
	ErrReplay         = errors.New("record replayed or out of order")
	ErrDecrypt        = errors.New("record decryption failed")
)

// DefaultRekeyInterval is the number of records after which the traffic keys
// ratchet forward.
const DefaultRekeyInterval = 1 << 12

// Options configures a channel endpoint.
type Options struct {
	// Rand supplies ephemeral key material; nil means crypto/rand.
	Rand io.Reader
	// RekeyInterval overrides DefaultRekeyInterval when positive.
	RekeyInterval uint64
	// Now returns the current virtual time for certificate validation; nil
	// means time zero.
	Now func() time.Duration
	// Unpooled disables the record-buffer and cipher reuse of the steady
	// state: every Seal/Open rebuilds the AEAD from the traffic key and
	// returns a freshly allocated record/plaintext. It exists for the
	// differential tests that prove the pooled fast path produces the exact
	// bytes of the allocation-per-record reference implementation.
	Unpooled bool
}

// Stats counts record-layer events.
type Stats struct {
	RecordsSealed   int64 `json:"recordsSealed"`
	RecordsOpened   int64 `json:"recordsOpened"`
	ReplaysRejected int64 `json:"replaysRejected"`
	DecryptFailures int64 `json:"decryptFailures"`
	Rekeys          int64 `json:"rekeys"`
}

type state int

const (
	stateIdle state = iota + 1
	stateAwaitServerHello
	stateAwaitFinished
	stateEstablished
	stateFailed
)

// Channel is one endpoint of a secure session. It is not safe for concurrent
// use; the simulation is single-threaded per scheduler.
type Channel struct {
	ident     pki.Identity
	verifier  *pki.Verifier
	initiator bool
	opts      Options

	st         state
	ephPriv    *ecdh.PrivateKey
	transcript []byte
	peerCert   pki.Certificate

	txKey, rxKey     []byte
	txSeq, rxSeq     uint64
	rxEpoch, txEpoch uint64
	rekeyEvery       uint64

	// Cached record-layer state: the AEADs for the current tx/rx key epochs
	// and the pooled buffers the steady state reuses record over record.
	// Traffic keys are never mutated in place (ratchet replaces the slice),
	// so the cached cipher is valid exactly until its epoch advances.
	txAEAD, rxAEAD cipher.AEAD
	sealBuf        []byte   // previous sealed record; overwritten by the next Seal
	openBuf        []byte   // previous opened plaintext; overwritten by the next Open
	nonceBuf       [12]byte // per-record GCM nonce scratch

	stats Stats
}

// NewInitiator creates the initiating endpoint of a channel.
func NewInitiator(ident pki.Identity, verifier *pki.Verifier, opts Options) *Channel {
	return newChannel(ident, verifier, true, opts)
}

// NewResponder creates the responding endpoint of a channel.
func NewResponder(ident pki.Identity, verifier *pki.Verifier, opts Options) *Channel {
	return newChannel(ident, verifier, false, opts)
}

func newChannel(ident pki.Identity, verifier *pki.Verifier, initiator bool, opts Options) *Channel {
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	interval := opts.RekeyInterval
	if interval == 0 {
		interval = DefaultRekeyInterval
	}
	return &Channel{
		ident:      ident,
		verifier:   verifier,
		initiator:  initiator,
		opts:       opts,
		st:         stateIdle,
		rekeyEvery: interval,
	}
}

// Established reports whether the channel is ready for Seal/Open.
func (c *Channel) Established() bool { return c.st == stateEstablished }

// PeerCert returns the authenticated peer certificate once established.
func (c *Channel) PeerCert() (pki.Certificate, bool) {
	if c.st != stateEstablished {
		return pki.Certificate{}, false
	}
	return c.peerCert, true
}

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

type helloMsg struct {
	Cert  json.RawMessage `json:"cert"`
	Eph   []byte          `json:"eph"`
	Nonce []byte          `json:"nonce"`
	Sig   []byte          `json:"sig,omitempty"`
}

type finishedMsg struct {
	Sig []byte `json:"sig"`
}

// Start produces the ClientHello. Only valid on an idle initiator.
func (c *Channel) Start() ([]byte, error) {
	if !c.initiator || c.st != stateIdle {
		return nil, fmt.Errorf("%w: start in state %d", ErrHandshake, c.st)
	}
	msg, err := c.makeHello(nil)
	if err != nil {
		return nil, err
	}
	c.transcript = append(c.transcript, msg...)
	c.st = stateAwaitServerHello
	return msg, nil
}

// HandleHandshake advances the handshake with an inbound message, returning
// the next outbound message (nil when the handshake has nothing further to
// send from this side).
func (c *Channel) HandleHandshake(msg []byte) ([]byte, error) {
	switch {
	case !c.initiator && c.st == stateIdle:
		return c.respondToClientHello(msg)
	case c.initiator && c.st == stateAwaitServerHello:
		return c.finishAsInitiator(msg)
	case !c.initiator && c.st == stateAwaitFinished:
		return nil, c.verifyFinished(msg)
	default:
		return nil, fmt.Errorf("%w: unexpected message in state %d", ErrHandshake, c.st)
	}
}

func (c *Channel) makeHello(sig []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(c.opts.Rand)
	if err != nil {
		return nil, fmt.Errorf("%w: ephemeral key: %v", ErrHandshake, err)
	}
	c.ephPriv = eph
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(c.opts.Rand, nonce); err != nil {
		return nil, fmt.Errorf("%w: nonce: %v", ErrHandshake, err)
	}
	certJSON, err := c.ident.Cert.Marshal()
	if err != nil {
		return nil, fmt.Errorf("%w: marshal cert: %v", ErrHandshake, err)
	}
	return json.Marshal(helloMsg{Cert: certJSON, Eph: eph.PublicKey().Bytes(), Nonce: nonce, Sig: sig})
}

func (c *Channel) respondToClientHello(msg []byte) ([]byte, error) {
	clientHello, clientCert, err := c.parseHello(msg)
	if err != nil {
		c.st = stateFailed
		return nil, err
	}
	c.peerCert = clientCert
	c.transcript = append(c.transcript, msg...)

	// Build our hello without signature first, sign transcript+core, rebuild.
	core, err := c.makeHello(nil)
	if err != nil {
		c.st = stateFailed
		return nil, err
	}
	h := sha256.Sum256(append(append([]byte{}, c.transcript...), core...))
	sig := c.ident.Sign(h[:])
	var serverHello helloMsg
	if err := json.Unmarshal(core, &serverHello); err != nil {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: internal: %v", ErrHandshake, err)
	}
	serverHello.Sig = sig
	out, err := json.Marshal(serverHello)
	if err != nil {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: marshal server hello: %v", ErrHandshake, err)
	}
	// The transcript the client signs covers msg1 + the server core (the
	// signed portion), not the signature itself.
	c.transcript = append(c.transcript, core...)

	if err := c.deriveKeys(clientHello.Eph, clientHello.Nonce, serverHello.Nonce); err != nil {
		c.st = stateFailed
		return nil, err
	}
	c.st = stateAwaitFinished
	return out, nil
}

func (c *Channel) finishAsInitiator(msg []byte) ([]byte, error) {
	serverHello, serverCert, err := c.parseHello(msg)
	if err != nil {
		c.st = stateFailed
		return nil, err
	}
	// Reconstruct the signed core: the server hello without its signature.
	core, err := json.Marshal(helloMsg{Cert: serverHello.Cert, Eph: serverHello.Eph, Nonce: serverHello.Nonce})
	if err != nil {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: internal: %v", ErrHandshake, err)
	}
	h := sha256.Sum256(append(append([]byte{}, c.transcript...), core...))
	if !pki.VerifySignature(serverCert, h[:], serverHello.Sig) {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: server transcript signature", ErrPeerAuth)
	}
	c.peerCert = serverCert
	c.transcript = append(c.transcript, core...)

	// Client hello carried our nonce; recover it from the transcript head.
	var clientHello helloMsg
	// Transcript = msg1 || core; msg1 length unknown here, so keep our nonce
	// from Start via ephPriv? Instead re-derive from stored fields.
	if err := json.Unmarshal(c.transcript[:len(c.transcript)-len(core)], &clientHello); err != nil {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: internal transcript: %v", ErrHandshake, err)
	}
	if err := c.deriveKeys(serverHello.Eph, clientHello.Nonce, serverHello.Nonce); err != nil {
		c.st = stateFailed
		return nil, err
	}

	fh := sha256.Sum256(append(append([]byte{}, c.transcript...), []byte("client-finished")...))
	fin, err := json.Marshal(finishedMsg{Sig: c.ident.Sign(fh[:])})
	if err != nil {
		c.st = stateFailed
		return nil, fmt.Errorf("%w: marshal finished: %v", ErrHandshake, err)
	}
	c.st = stateEstablished
	return fin, nil
}

func (c *Channel) verifyFinished(msg []byte) error {
	var fin finishedMsg
	if err := json.Unmarshal(msg, &fin); err != nil {
		c.st = stateFailed
		return fmt.Errorf("%w: parse finished: %v", ErrHandshake, err)
	}
	fh := sha256.Sum256(append(append([]byte{}, c.transcript...), []byte("client-finished")...))
	if !pki.VerifySignature(c.peerCert, fh[:], fin.Sig) {
		c.st = stateFailed
		return fmt.Errorf("%w: client finished signature", ErrPeerAuth)
	}
	c.st = stateEstablished
	return nil
}

func (c *Channel) parseHello(msg []byte) (helloMsg, pki.Certificate, error) {
	var hello helloMsg
	if err := json.Unmarshal(msg, &hello); err != nil {
		return helloMsg{}, pki.Certificate{}, fmt.Errorf("%w: parse hello: %v", ErrHandshake, err)
	}
	cert, err := pki.ParseCertificate(hello.Cert)
	if err != nil {
		return helloMsg{}, pki.Certificate{}, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	now := time.Duration(0)
	if c.opts.Now != nil {
		now = c.opts.Now()
	}
	if err := c.verifier.Verify(cert, now); err != nil {
		return helloMsg{}, pki.Certificate{}, fmt.Errorf("%w: %v", ErrPeerAuth, err)
	}
	return hello, cert, nil
}

func (c *Channel) deriveKeys(peerEph, initNonce, respNonce []byte) error {
	peer, err := ecdh.X25519().NewPublicKey(peerEph)
	if err != nil {
		return fmt.Errorf("%w: peer ephemeral: %v", ErrHandshake, err)
	}
	secret, err := c.ephPriv.ECDH(peer)
	if err != nil {
		return fmt.Errorf("%w: ecdh: %v", ErrHandshake, err)
	}
	salt := append(append([]byte{}, initNonce...), respNonce...)
	keys := hkdf(secret, salt, []byte("forestsec-channel-v1"), 64)
	i2r, r2i := keys[:32], keys[32:]
	if c.initiator {
		c.txKey, c.rxKey = i2r, r2i
	} else {
		c.txKey, c.rxKey = r2i, i2r
	}
	if !c.opts.Unpooled {
		var err error
		if c.txAEAD, err = newAEAD(c.txKey); err != nil {
			return err
		}
		if c.rxAEAD, err = newAEAD(c.rxKey); err != nil {
			return err
		}
	}
	return nil
}

// Fork clones an established channel into an independent endpoint with fresh
// sequence numbers, statistics and record buffers. The immutable key material
// and cached ciphers are shared: traffic keys are only ever replaced (the
// ratchet derives a new slice), never mutated, and the AES-GCM AEAD is
// stateless, so concurrent forks cannot interfere. Fork is how batched
// executions reuse one commissioned handshake across many sessions — a forked
// endpoint behaves byte-identically to the endpoint it was forked from at the
// moment the handshake completed.
func (c *Channel) Fork() (*Channel, error) {
	if c.st != stateEstablished {
		return nil, ErrNotEstablished
	}
	if c.txSeq != 0 || c.rxSeq != 0 {
		return nil, fmt.Errorf("%w: fork after traffic (txSeq=%d rxSeq=%d)", ErrHandshake, c.txSeq, c.rxSeq)
	}
	fork := &Channel{
		ident:      c.ident,
		verifier:   c.verifier,
		initiator:  c.initiator,
		opts:       Options{RekeyInterval: c.rekeyEvery, Unpooled: c.opts.Unpooled},
		st:         stateEstablished,
		peerCert:   c.peerCert,
		txKey:      c.txKey,
		rxKey:      c.rxKey,
		rekeyEvery: c.rekeyEvery,
		txAEAD:     c.txAEAD,
		rxAEAD:     c.rxAEAD,
	}
	return fork, nil
}

// Seal encrypts plaintext into a record: [8-byte seq | GCM ciphertext].
//
// The returned slice aliases the channel's pooled record buffer and is valid
// until the next Seal on this channel; callers that retain records across
// seals must copy (the simulator's network adapter copies the payload into
// its own frame storage before transmitting). Under Options.Unpooled every
// record is a fresh allocation instead.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	if c.st != stateEstablished {
		return nil, ErrNotEstablished
	}
	seq := c.txSeq
	c.txSeq++
	if epoch := seq / c.rekeyEvery; epoch > c.txEpoch {
		for c.txEpoch < epoch { // cold rekey loop: runs once per RekeyInterval records
			c.txKey = ratchet(c.txKey)
			c.txEpoch++
			c.stats.Rekeys++
		}
		aead, err := newAEAD(c.txKey)
		if err != nil {
			return nil, err
		}
		c.txAEAD = aead
	}
	if c.opts.Unpooled {
		return c.sealUnpooled(seq, plaintext)
	}
	buf := c.sealBuf[:0]
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	buf = append(buf, hdr[:]...)
	binary.BigEndian.PutUint64(c.nonceBuf[4:], seq)
	record := c.txAEAD.Seal(buf, c.nonceBuf[:], plaintext, buf[:8])
	c.sealBuf = record
	c.stats.RecordsSealed++
	return record, nil
}

// sealUnpooled is the allocation-per-record reference path: rebuild the
// cipher from the traffic key, derive a fresh nonce and return a fresh
// record. The pooled fast path above must produce exactly these bytes —
// FuzzSealOpen holds the two together.
func (c *Channel) sealUnpooled(seq uint64, plaintext []byte) ([]byte, error) {
	aead, err := newAEAD(c.txKey)
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	ct := aead.Seal(nil, recordNonce(seq), plaintext, hdr[:])
	c.stats.RecordsSealed++
	return append(hdr[:], ct...), nil
}

// maxEpochSkip bounds how many key epochs a single record may advance the
// receiver. Without the bound, a forged record with an astronomical sequence
// number would make the receiver ratchet (and desynchronise) its key state —
// a denial-of-service on the channel itself.
const maxEpochSkip = 1 << 10

// Open authenticates and decrypts a record, enforcing strictly increasing
// sequence numbers (drops allowed, replays rejected). Receiver key state is
// only committed after the record authenticates, so forged records cannot
// perturb the channel.
//
// The returned plaintext aliases the channel's pooled buffer and is valid
// until the next Open on this channel; under Options.Unpooled it is a fresh
// allocation instead.
func (c *Channel) Open(record []byte) ([]byte, error) {
	if c.st != stateEstablished {
		return nil, ErrNotEstablished
	}
	if len(record) < 8 {
		c.stats.DecryptFailures++
		return nil, fmt.Errorf("%w: short record", ErrDecrypt)
	}
	seq := binary.BigEndian.Uint64(record[:8])
	if c.stats.RecordsOpened > 0 && seq < c.rxSeq {
		c.stats.ReplaysRejected++
		return nil, fmt.Errorf("%w: seq %d < %d", ErrReplay, seq, c.rxSeq)
	}
	epoch := seq / c.rekeyEvery
	if epoch < c.rxEpoch {
		c.stats.ReplaysRejected++
		return nil, fmt.Errorf("%w: epoch %d already ratcheted away", ErrReplay, epoch)
	}
	if epoch-c.rxEpoch > maxEpochSkip {
		c.stats.DecryptFailures++
		return nil, fmt.Errorf("%w: implausible epoch skip %d", ErrDecrypt, epoch-c.rxEpoch)
	}
	key, aead := c.rxKey, c.rxAEAD
	if epoch > c.rxEpoch || aead == nil {
		// Epoch advance (or unpooled mode): derive the candidate key and
		// cipher transiently; receiver state commits only after the record
		// authenticates, so forged records cannot perturb the channel.
		for e := c.rxEpoch; e < epoch; e++ { // cold rekey loop: runs once per RekeyInterval records
			key = ratchet(key)
		}
		var err error
		aead, err = newAEAD(key)
		if err != nil {
			return nil, err
		}
	}
	var pt []byte
	var err error
	if c.opts.Unpooled {
		pt, err = aead.Open(nil, recordNonce(seq), record[8:], record[:8])
	} else {
		binary.BigEndian.PutUint64(c.nonceBuf[4:], seq)
		pt, err = aead.Open(c.openBuf[:0], c.nonceBuf[:], record[8:], record[:8])
	}
	if err != nil {
		c.stats.DecryptFailures++
		return nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	if !c.opts.Unpooled {
		c.openBuf = pt
		c.rxAEAD = aead
	}
	c.rxKey, c.rxEpoch = key, epoch
	c.rxSeq = seq + 1
	c.stats.RecordsOpened++
	return pt, nil
}

// newAEAD builds the record cipher for a traffic-key epoch. The steady state
// reuses the cached per-epoch AEAD (txAEAD/rxAEAD), so this runs only at key
// derivation and on epoch ratchets — the construction used to dominate the
// secured record path, and its heap behavior stays pinned by the escape
// budget so it cannot creep back onto the per-record path unnoticed.
func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("record cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("record aead: %w", err)
	}
	return aead, nil
}

// recordNonce derives the per-record GCM nonce from the sequence number.
func recordNonce(seq uint64) []byte {
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], seq)
	return nonce
}

// ratchet derives the next epoch key one-way, so key compromise does not
// expose earlier traffic.
func ratchet(key []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("forestsec-rekey"))
	return mac.Sum(nil)
}

// hkdf implements HKDF-SHA256 (RFC 5869) extract-and-expand.
func hkdf(secret, salt, info []byte, length int) []byte {
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	var out []byte
	var prev []byte
	for i := byte(1); len(out) < length; i++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(prev)
		exp.Write(info)
		exp.Write([]byte{i})
		prev = exp.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}
