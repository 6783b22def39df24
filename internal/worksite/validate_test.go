package worksite

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidateErrors drives every rejection path: a malformed scenario
// spec must fail commissioning with a message naming the offending field.
func TestConfigValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(c *Config)
		wantSub string
	}{
		{"zero cols", func(c *Config) { c.Cols = 0 }, "grid dimensions"},
		{"negative rows", func(c *Config) { c.Rows = -3 }, "grid dimensions"},
		{"zero cell size", func(c *Config) { c.CellSizeM = 0 }, "cell size"},
		{"negative tree density", func(c *Config) { c.TreeDensity = -0.1 }, "tree density"},
		{"tree density above one", func(c *Config) { c.TreeDensity = 1.5 }, "tree density"},
		{"negative rock density", func(c *Config) { c.RockDensity = -0.2 }, "rock density"},
		{"rain above one", func(c *Config) { c.Weather.Rain = 2 }, "weather"},
		{"negative darkness", func(c *Config) { c.Weather.Darkness = -1 }, "weather"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "worker count"},
		{"negative confirm hits", func(c *Config) { c.ConfirmHits = -2 }, "confirm hits"},
		{"zero load time", func(c *Config) { c.LoadTime = 0 }, "load/unload"},
		{"negative unload time", func(c *Config) { c.UnloadTime = -time.Second }, "load/unload"},
		{"zero tick period", func(c *Config) { c.TickPeriod = 0 }, "tick period"},
		{"continuous risk without IDS", func(c *Config) { c.Profile.ContinuousRisk = true }, "idsEnabled"},
		{"channel agility without IDS", func(c *Config) { c.Profile.ChannelAgility = true }, "idsEnabled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the field (want substring %q)", err, tc.wantSub)
			}
			// New must reject the same config with the same diagnosis.
			if _, nerr := New(cfg); nerr == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
		})
	}
}

// TestConfigValidateAcceptsDefault pins the contract that the baseline
// configuration (and its legitimate zero-valued variants) stays valid.
func TestConfigValidateAcceptsDefault(t *testing.T) {
	cfg := DefaultConfig(7)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cfg.Workers = 0 // a site without workers on foot is a real scenario
	cfg.DroneEnabled = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("worker-free drone-free config rejected: %v", err)
	}
}

// TestNewSessionSharedRejectsMismatchedBundle drives the guards of the
// bundle-taking constructor, the only path a site gets its security state
// through: a bundle commissioned for another drone setting, or without the
// secure channels the config wants, must be refused.
func TestNewSessionSharedRejectsMismatchedBundle(t *testing.T) {
	cases := []struct {
		name    string
		bundle  func(c *Config)
		wantSub string // "" = accepted
	}{
		{"matching bundle", func(c *Config) {}, ""},
		{"bundle without drone", func(c *Config) { c.DroneEnabled = false }, "droneEnabled=false, config wants true"},
		{"bundle without secure channels", func(c *Config) { c.Profile = Unsecured() }, "wants secure channels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			cfg.Profile = Secured()
			bcfg := cfg
			tc.bundle(&bcfg)
			sh, err := CommissionSecurity(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewSessionShared(cfg, sh)
			if tc.wantSub == "" {
				if err != nil {
					t.Fatalf("matching bundle refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("NewSessionShared accepted a bundle with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the mismatch (want substring %q)", err, tc.wantSub)
			}
		})
	}
}
