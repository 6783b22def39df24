// Package pki implements the worksite public-key infrastructure.
//
// Chattopadhyay & Lam (cited in Section IV-C) emphasise a Certificate
// Authority issuing certificates to every component communicating with a
// cyber-physical system so that untrusted components cannot initiate attacks.
// This package provides that CA for the forestry worksite: Ed25519 identities,
// a compact certificate profile (a real deployment would carry the same fields
// in X.509 or IEEE 1609.2), revocation via CRL, and role-based issuance so a
// drone certificate cannot impersonate the coordinator.
//
// Validity is expressed in virtual simulation time (duration since site
// commissioning), keeping runs deterministic.
package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Role restricts what a certificate's subject may do on the worksite.
type Role int

// Worksite roles.
const (
	RoleCA Role = iota + 1
	RoleCoordinator
	RoleMachine
	RoleDrone
	RoleSensor
	RoleOperator
)

// String returns a short role label.
func (r Role) String() string {
	switch r {
	case RoleCA:
		return "ca"
	case RoleCoordinator:
		return "coordinator"
	case RoleMachine:
		return "machine"
	case RoleDrone:
		return "drone"
	case RoleSensor:
		return "sensor"
	case RoleOperator:
		return "operator"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Verification errors, matchable with errors.Is.
var (
	ErrBadSignature = errors.New("certificate signature invalid")
	ErrExpired      = errors.New("certificate expired")
	ErrNotYetValid  = errors.New("certificate not yet valid")
	ErrRevoked      = errors.New("certificate revoked")
	ErrWrongIssuer  = errors.New("certificate issued by a different CA")
	ErrRoleDenied   = errors.New("certificate role not permitted here")
)

// Certificate binds a subject name and role to an Ed25519 public key, signed
// by the worksite CA.
type Certificate struct {
	Serial    uint64            `json:"serial"`
	Subject   string            `json:"subject"`
	Role      Role              `json:"role"`
	PublicKey ed25519.PublicKey `json:"publicKey"`
	Issuer    string            `json:"issuer"`
	NotBefore time.Duration     `json:"notBeforeNs"` // virtual time since commissioning
	NotAfter  time.Duration     `json:"notAfterNs"`
	Signature []byte            `json:"signature"`
}

// tbs returns the deterministic to-be-signed encoding of the certificate.
func (c Certificate) tbs() []byte {
	return c.appendTBS(make([]byte, 0, 128))
}

// appendTBS appends the to-be-signed encoding to dst and returns the grown
// slice, so callers with a scratch buffer encode without allocating.
func (c Certificate) appendTBS(dst []byte) []byte {
	buf := dst
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], c.Serial)
	buf = append(buf, u64[:]...)
	buf = append(buf, []byte(c.Subject)...)
	buf = append(buf, 0)
	binary.BigEndian.PutUint64(u64[:], uint64(c.Role))
	buf = append(buf, u64[:]...)
	buf = append(buf, c.PublicKey...)
	buf = append(buf, []byte(c.Issuer)...)
	buf = append(buf, 0)
	binary.BigEndian.PutUint64(u64[:], uint64(c.NotBefore))
	buf = append(buf, u64[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(c.NotAfter))
	buf = append(buf, u64[:]...)
	return buf
}

// Fingerprint returns the SHA-256 digest of the to-be-signed encoding,
// suitable as a stable identifier in logs and assurance evidence.
func (c Certificate) Fingerprint() [32]byte { return sha256.Sum256(c.tbs()) }

// Marshal serialises the certificate to JSON.
func (c Certificate) Marshal() ([]byte, error) { return json.Marshal(c) }

// ParseCertificate deserialises a certificate from JSON.
func ParseCertificate(data []byte) (Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return Certificate{}, fmt.Errorf("parse certificate: %w", err)
	}
	return c, nil
}

// Identity is a certificate plus its private key.
type Identity struct {
	Cert Certificate
	priv ed25519.PrivateKey
}

// Sign signs msg with the identity's private key.
func (id Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// PublicKey returns the identity's public key.
func (id Identity) PublicKey() ed25519.PublicKey { return id.Cert.PublicKey }

// CA is the worksite certificate authority.
type CA struct {
	ident      Identity
	randSrc    io.Reader
	nextSerial uint64
	revoked    map[uint64]struct{}
}

// NewCA creates a CA named name. randSrc supplies key material; pass nil for
// crypto/rand (production) or a deterministic reader (reproducible tests).
func NewCA(name string, randSrc io.Reader) (*CA, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(randSrc)
	if err != nil {
		return nil, fmt.Errorf("new ca: generate key: %w", err)
	}
	ca := &CA{
		randSrc:    randSrc,
		nextSerial: 1,
		revoked:    make(map[uint64]struct{}),
	}
	cert := Certificate{
		Serial:    ca.nextSerial,
		Subject:   name,
		Role:      RoleCA,
		PublicKey: pub,
		Issuer:    name,
		NotBefore: 0,
		NotAfter:  100 * 365 * 24 * time.Hour,
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	ca.ident = Identity{Cert: cert, priv: priv}
	ca.nextSerial++
	return ca, nil
}

// Cert returns the CA's self-signed certificate (the worksite trust anchor).
func (ca *CA) Cert() Certificate { return ca.ident.Cert }

// Issue generates a fresh key pair and certificate for subject with the given
// role and validity window, returning the complete identity.
func (ca *CA) Issue(subject string, role Role, notBefore, notAfter time.Duration) (Identity, error) {
	if role == RoleCA {
		return Identity{}, fmt.Errorf("issue %q: cannot issue CA role", subject)
	}
	if notAfter <= notBefore {
		return Identity{}, fmt.Errorf("issue %q: empty validity window", subject)
	}
	pub, priv, err := ed25519.GenerateKey(ca.randSrc)
	if err != nil {
		return Identity{}, fmt.Errorf("issue %q: generate key: %w", subject, err)
	}
	cert := Certificate{
		Serial:    ca.nextSerial,
		Subject:   subject,
		Role:      role,
		PublicKey: pub,
		Issuer:    ca.ident.Cert.Subject,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	ca.nextSerial++
	cert.Signature = ed25519.Sign(ca.ident.priv, cert.tbs())
	return Identity{Cert: cert, priv: priv}, nil
}

// Revoke adds the serial to the CA's revocation list.
func (ca *CA) Revoke(serial uint64) { ca.revoked[serial] = struct{}{} }

// CRL returns the current revocation list as a lookup set.
func (ca *CA) CRL() map[uint64]struct{} {
	out := make(map[uint64]struct{}, len(ca.revoked))
	for s := range ca.revoked {
		out[s] = struct{}{}
	}
	return out
}

// Verifier validates certificates against a trust anchor and CRL snapshot.
// Distributing the Verifier (rather than the CA) to worksite actors mirrors
// real deployments: machines hold the root cert and a CRL, not the CA key.
type Verifier struct {
	anchor Certificate
	crl    map[uint64]struct{}
	// AllowedRoles, when non-empty, restricts which roles verify successfully.
	AllowedRoles map[Role]struct{}

	// tbsScratch is the reusable to-be-signed encoding buffer for Verify.
	// Verifiers are not safe for concurrent Verify calls (they never were:
	// UpdateCRL already races with Verify); each handshake runner owns or
	// serialises its verifier.
	tbsScratch []byte
}

// NewVerifier builds a verifier for the given trust anchor. crl may be nil.
func NewVerifier(anchor Certificate, crl map[uint64]struct{}) *Verifier {
	return &Verifier{anchor: anchor, crl: crl}
}

// UpdateCRL replaces the verifier's revocation snapshot.
func (v *Verifier) UpdateCRL(crl map[uint64]struct{}) { v.crl = crl }

// Verify checks cert at virtual time now. It returns nil if the certificate
// chains to the anchor, is within validity, not revoked, and (if role policy
// is set) has an allowed role.
func (v *Verifier) Verify(cert Certificate, now time.Duration) error {
	if cert.Issuer != v.anchor.Subject {
		return fmt.Errorf("verify %q: issuer %q: %w", cert.Subject, cert.Issuer, ErrWrongIssuer)
	}
	v.tbsScratch = cert.appendTBS(v.tbsScratch[:0])
	if !ed25519.Verify(v.anchor.PublicKey, v.tbsScratch, cert.Signature) {
		return fmt.Errorf("verify %q: %w", cert.Subject, ErrBadSignature)
	}
	if now < cert.NotBefore {
		return fmt.Errorf("verify %q: %w", cert.Subject, ErrNotYetValid)
	}
	if now > cert.NotAfter {
		return fmt.Errorf("verify %q: %w", cert.Subject, ErrExpired)
	}
	if v.crl != nil {
		if _, revoked := v.crl[cert.Serial]; revoked {
			return fmt.Errorf("verify %q (serial %d): %w", cert.Subject, cert.Serial, ErrRevoked)
		}
	}
	if len(v.AllowedRoles) > 0 {
		if _, ok := v.AllowedRoles[cert.Role]; !ok {
			return fmt.Errorf("verify %q: role %s: %w", cert.Subject, cert.Role, ErrRoleDenied)
		}
	}
	return nil
}

// VerifySignature checks that sig is a valid signature by cert's key over msg.
func VerifySignature(cert Certificate, msg, sig []byte) bool {
	return ed25519.Verify(cert.PublicKey, msg, sig)
}
