package worksite

import "repro/internal/rng"

// SharedSecurity is the seed-invariant half of security commissioning: the
// site CA, the issued machine identities, and the pairwise channels already
// taken through their handshakes. Every site is built over one: New
// commissions a bundle of its own, and a batch commissions one bundle and
// builds every per-seed session over it. Each site forks the established
// channels rather than re-running keygen, issuance and four SIGMA handshakes.
//
// Sharing key material across seeds is sound because no simulation-observable
// byte depends on it: record lengths are key-independent, replay and decrypt
// rejections carry constant or sequence-derived detail, and packet-drop
// decisions are position- and rng-driven. Rooting the bundle at another seed
// than the session's is equally invisible: the session never draws from its
// own "pki" and "handshakes" streams, and rng.Derive children are
// independent, so sibling streams never shift. The catalog golden and the
// OpenBatch byte-identity test in the worksim facade lock both claims byte
// for byte.
//
// The bundle is immutable after CommissionSecurity returns and safe for
// concurrent forking from pool workers.
type SharedSecurity struct {
	droneEnabled bool
	secured      bool
	bundle       *securityBundle
}

// CommissionSecurity builds the security bundle for cfg, rooted at cfg's
// seed. For a profile without secure channels the bundle carries nothing.
// The handshakes run at virtual time zero, the commissioning instant.
func CommissionSecurity(cfg Config) (*SharedSecurity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := &SharedSecurity{droneEnabled: cfg.DroneEnabled, secured: cfg.Profile.SecureChannels}
	if !sh.secured {
		return sh, nil
	}
	b, err := buildSecurity(cfg.DroneEnabled, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	sh.bundle = b
	return sh, nil
}

// NewSessionShared is NewSession over a commissioned security bundle: the
// session forks the bundle's established channels. It fails when the bundle
// was commissioned for a different drone setting, or without the secure
// channels cfg wants.
func NewSessionShared(cfg Config, sh *SharedSecurity) (*Session, error) {
	site, err := newSite(cfg, sh)
	if err != nil {
		return nil, err
	}
	return &Session{site: site}, nil
}
