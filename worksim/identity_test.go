package worksim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/trace"
)

// identityDuration keeps the capture cheap while still covering every attack
// window (catalog windows are fractions of the horizon, so any duration
// exercises them all).
const identityDuration = 2 * time.Minute

// runDigest executes one (scenario, profile, seed) run with a trace observer
// attached and returns the SHA-256 over the report JSON plus the full
// JSON-lines event stream — a content address of everything the run can
// externalise.
func runDigest(t *testing.T, spec worksim.Scenario, profile worksim.SecurityProfile, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	s, err := worksim.Open(spec,
		worksim.WithSeed(seed),
		worksim.WithHorizon(identityDuration),
		worksim.WithProfile(profile),
		worksim.WithObserver(w.Observer()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sessionDigest(t, s, w, &buf)
}

// sessionDigest runs an opened session (with w already subscribed, writing
// into buf) to its horizon and content-addresses report + trace.
func sessionDigest(t *testing.T, s *worksim.Session, w *trace.Writer, buf *bytes.Buffer) string {
	t.Helper()
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(repJSON)
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestOpenBatchByteIdentity checks that sharing a commission is invisible:
// for every (scenario, profile, seed) probed, each of N sessions forked
// from one OpenBatch bundle must produce report and trace bytes identical
// to Open of the same run, which is a batch of one. Sibling forks of one
// bundle must not disturb each other, and the batch's seed axis must
// reach every session exactly as WithSeed does.
func TestOpenBatchByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("differential batch capture is not -short friendly")
	}
	seeds := []int64{1, 2, 7, 42}
	scenarios := worksim.Catalog()[:3]
	for _, name := range scenarios {
		for _, prof := range worksim.Profiles() {
			spec, err := worksim.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			profile, err := worksim.ResolveProfile(prof)
			if err != nil {
				t.Fatal(err)
			}
			b, err := worksim.OpenBatch(spec, seeds,
				worksim.WithHorizon(identityDuration),
				worksim.WithProfile(profile),
			)
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != len(seeds) {
				t.Fatalf("batch has %d sessions, want %d", b.Len(), len(seeds))
			}
			for i := 0; i < b.Len(); i++ {
				var buf bytes.Buffer
				w := trace.NewWriter(&buf)
				s := b.Session(i)
				s.Subscribe(w.Observer())
				got := sessionDigest(t, s, w, &buf)
				want := runDigest(t, spec, profile, b.Seed(i))
				if got != want {
					t.Errorf("%s/%s seed %d: batched session bytes drifted from independent Open (digest %s, want %s)",
						name, prof, b.Seed(i), got, want)
				}
			}
		}
	}
}

// TestCatalogByteIdentity locks the report and trace bytes of every catalog
// scenario under both security profiles against checked-in digests. The
// golden file was captured before the secured-path pooling/batching work, so
// it proves the optimisation never changed a single observable byte.
// Regenerate deliberately with:
//
//	go test ./worksim -run TestCatalogByteIdentity -update
func TestCatalogByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog capture is not -short friendly")
	}
	type key struct{ scenario, profile string }
	got := make(map[string]string)
	var keys []key
	for _, name := range worksim.Catalog() {
		for _, prof := range worksim.Profiles() {
			keys = append(keys, key{name, prof})
		}
	}
	type res struct {
		k      string
		digest string
	}
	results := make(chan res, len(keys))
	sem := make(chan struct{}, 4)
	for _, k := range keys {
		k := k
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := worksim.Lookup(k.scenario)
			if err != nil {
				t.Error(err)
				results <- res{}
				return
			}
			profile, err := worksim.ResolveProfile(k.profile)
			if err != nil {
				t.Error(err)
				results <- res{}
				return
			}
			results <- res{k.scenario + "/" + k.profile, runDigest(t, spec, profile, worksim.DefaultSeed)}
		}()
	}
	for range keys {
		r := <-results
		if r.k != "" {
			got[r.k] = r.digest
		}
	}
	if t.Failed() {
		t.Fatalf("capture failed")
	}

	path := filepath.Join("testdata", "catalog_identity.golden.json")
	if *update {
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range names {
			fmt.Fprintf(&buf, "  %q: %q", k, got[k])
			if i < len(names)-1 {
				buf.WriteString(",")
			}
			buf.WriteString("\n")
		}
		buf.WriteString("}\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("catalog shape drifted: %d runs captured, golden has %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from capture", k)
		} else if g != w {
			t.Errorf("%s: report/trace bytes drifted (digest %s, want %s)", k, g, w)
		}
	}
}
