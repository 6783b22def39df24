package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestEventLogSequencesAndReplay: appends are 1-based dense sequences; a
// cursor replays exactly the entries beyond it.
func TestEventLogSequencesAndReplay(t *testing.T) {
	l := newEventLog(10)
	for i := 0; i < 5; i++ {
		l.append("tick", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	if got := l.total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	batch, evicted, closed, _ := l.since(0)
	if evicted != 0 || closed {
		t.Fatalf("since(0): evicted=%d closed=%v, want 0/false", evicted, closed)
	}
	if len(batch) != 5 {
		t.Fatalf("since(0) returned %d entries, want 5", len(batch))
	}
	for i, e := range batch {
		if e.seq != uint64(i+1) {
			t.Fatalf("entry %d seq = %d, want %d", i, e.seq, i+1)
		}
	}
	batch, _, _, _ = l.since(3)
	if len(batch) != 2 || batch[0].seq != 4 || batch[1].seq != 5 {
		t.Fatalf("since(3) = %+v, want seqs [4 5]", batch)
	}
	if batch, _, _, _ = l.since(5); len(batch) != 0 {
		t.Fatalf("since(5) = %+v, want empty", batch)
	}
}

// TestEventLogEviction: the ring keeps the newest cap entries; a stale
// cursor reports the gap and resumes at the oldest retained event.
func TestEventLogEviction(t *testing.T) {
	l := newEventLog(3)
	for i := 1; i <= 8; i++ {
		l.append("tick", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	// Retained: seqs 6, 7, 8. A from-the-start cursor lost 5 events.
	batch, evicted, _, _ := l.since(0)
	if evicted != 5 {
		t.Fatalf("since(0) evicted = %d, want 5", evicted)
	}
	if len(batch) != 3 || batch[0].seq != 6 || batch[2].seq != 8 {
		t.Fatalf("since(0) batch seqs = %+v, want [6 7 8]", batch)
	}
	// A cursor inside the retained window sees no gap.
	batch, evicted, _, _ = l.since(6)
	if evicted != 0 || len(batch) != 2 || batch[0].seq != 7 {
		t.Fatalf("since(6) = %+v evicted=%d, want seqs [7 8] gap 0", batch, evicted)
	}
}

// TestEventLogNotifyAndClose: waiting consumers wake on append and on close;
// appends after close are dropped.
func TestEventLogNotifyAndClose(t *testing.T) {
	l := newEventLog(10)
	_, _, closed, notify := l.since(0)
	if closed {
		t.Fatal("fresh log reports closed")
	}
	select {
	case <-notify:
		t.Fatal("notify fired before any append")
	default:
	}
	l.append("tick", []byte(`{}`))
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the waiting consumer")
	}
	batch, _, closed, notify := l.since(0)
	if len(batch) != 1 || closed {
		t.Fatalf("after append: batch=%d closed=%v, want 1/false", len(batch), closed)
	}
	l.close()
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the waiting consumer")
	}
	l.append("tick", []byte(`{}`)) // dropped
	if _, _, closed, _ := l.since(1); !closed {
		t.Fatal("closed log does not report closed")
	}
	if got := l.total(); got != 1 {
		t.Fatalf("append after close changed total to %d, want 1", got)
	}
}

// TestParseAPIKeys: one key per line, comments and blanks ignored.
func TestParseAPIKeys(t *testing.T) {
	keys := ParseAPIKeys([]byte("# ops keys\nalpha\n\n  beta  \n# trailing\n"))
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" {
		t.Fatalf("ParseAPIKeys = %v, want [alpha beta]", keys)
	}
	if keys := ParseAPIKeys(nil); keys != nil {
		t.Fatalf("ParseAPIKeys(nil) = %v, want nil", keys)
	}
}

// fakeClock is an injectable wall clock for the token-bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestTokenBucketRefill: a key gets burst requests instantly, is rejected
// once drained, and refills at the configured rate.
func TestTokenBucketRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator(nil, 2, 4, clk.now) // 2 req/s, burst 4
	for i := 0; i < 4; i++ {
		if !a.allow("k") {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	if a.allow("k") {
		t.Fatal("request beyond burst allowed")
	}
	clk.advance(500 * time.Millisecond) // refills one token at 2/s
	if !a.allow("k") {
		t.Fatal("request after refill rejected")
	}
	if a.allow("k") {
		t.Fatal("second request after a one-token refill allowed")
	}
	clk.advance(time.Hour) // refill caps at burst
	for i := 0; i < 4; i++ {
		if !a.allow("k") {
			t.Fatalf("request %d after long idle rejected", i)
		}
	}
	if a.allow("k") {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestTokenBucketPerKey: buckets are independent per key fingerprint.
func TestTokenBucketPerKey(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator(nil, 1, 1, clk.now)
	if !a.allow("a") {
		t.Fatal("first request on key a rejected")
	}
	if a.allow("a") {
		t.Fatal("drained key a still allowed")
	}
	if !a.allow("b") {
		t.Fatal("key b throttled by key a's bucket")
	}
}

// TestAuthenticatorCheck: key-set enforcement and the loggable fingerprint.
func TestAuthenticatorCheck(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator([]string{"secret"}, -1, 0, clk.now)

	req := func(header, value string) *http.Request {
		r, err := http.NewRequest(http.MethodGet, "/v1/runs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			r.Header.Set(header, value)
		}
		return r
	}

	if _, apiErr := a.check(req("", "")); apiErr == nil || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("missing key: %+v, want 401", apiErr)
	}
	if _, apiErr := a.check(req("X-API-Key", "wrong")); apiErr == nil || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("unknown key: %+v, want 401", apiErr)
	}
	id, apiErr := a.check(req("Authorization", "Bearer secret"))
	if apiErr != nil {
		t.Fatalf("valid bearer key rejected: %+v", apiErr)
	}
	if id == "" || id == "secret" || id == "anonymous" {
		t.Fatalf("keyID = %q, want a fingerprint that is neither empty nor the key", id)
	}
	if id2, _ := a.check(req("X-API-Key", "secret")); id2 != id {
		t.Fatalf("X-API-Key fingerprint %q differs from bearer fingerprint %q", id2, id)
	}
}

// TestRegistryIDsAndOrder: dense prefixed IDs, lookup, and sorted listing.
func TestRegistryIDsAndOrder(t *testing.T) {
	reg := newRegistry[*runJob]("r")
	a := reg.add(func(id string) *runJob { return &runJob{id: id} })
	b := reg.add(func(id string) *runJob { return &runJob{id: id} })
	if a.id != "r-000001" || b.id != "r-000002" {
		t.Fatalf("ids = %q, %q, want r-000001, r-000002", a.id, b.id)
	}
	if got, ok := reg.get("r-000002"); !ok || got != b {
		t.Fatalf("get(r-000002) = %v, %v", got, ok)
	}
	if _, ok := reg.get("r-999999"); ok {
		t.Fatal("get of an unknown id succeeded")
	}
	all := reg.all()
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("all() not in ID order: %v", all)
	}
}

// TestSlowHeaderClientDisconnected: a client that sends part of a request
// header and then stalls has its connection closed once readHeaderTimeout
// passes, instead of holding it open for as long as it likes.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	defer func() { readHeaderTimeout = prev }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- New(Config{}).Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: worksimd\r\n"); err != nil {
		t.Fatal(err)
	}
	// Far beyond the shortened timeout: a server without one is still
	// waiting for the rest of the header when this deadline passes.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept a partial-header connection open for 5s; want it closed after readHeaderTimeout")
	}
}
