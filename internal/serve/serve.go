// Package serve is the simulation-as-a-service layer behind the worksimd
// daemon: a JSON/REST front on the simulation engine (stdlib net/http only)
// with asynchronous run and sweep jobs, live Server-Sent-Event streaming of
// the typed event feed, static API-key authentication, per-key token-bucket
// rate limiting, a concurrent-job quota, structured request logging and
// graceful drain.
//
// The package deliberately reuses the engine's existing seams instead of
// inventing new ones: a submitted spec goes through the same
// scenario.Parse/Get → scenario.Build pipeline the worksim façade uses, so a
// daemon run's report JSON is byte-identical to an in-process
// worksim.Open(...).Run at the same (spec, profile, seed, horizon); the SSE
// payload is exactly the `worksite-sim -trace` JSON-lines encoding
// (internal/tracefmt); and sweeps fan out on the campaign engine's bounded
// pool with its cancellation semantics.
//
// Lifecycle: POST /v1/runs registers a job and returns immediately with an
// ID; the run advances on its own goroutine, feeding a bounded in-memory
// event ring that any number of SSE consumers replay at their own pace
// (slow consumers lose evicted events, they never stall the tick loop).
// DELETE cancels through the run's context — cancellation lands between
// control ticks, like every other context in the repo. On drain the server
// stops accepting work, waits out in-flight jobs up to a deadline, then
// cancels the stragglers and exits cleanly.
//
// This package reads the wall clock (rate limiting, request logs, drain
// deadlines) — serving infrastructure, never simulation state: the
// simulated runs it hosts stay byte-reproducible.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultRatePerSec is the per-key request refill rate.
	DefaultRatePerSec = 20.0
	// DefaultBurst is the per-key token-bucket capacity.
	DefaultBurst = 40
	// DefaultMaxConcurrentJobs bounds simultaneously active run+sweep jobs.
	DefaultMaxConcurrentJobs = 8
	// DefaultEventBuffer is the per-run SSE replay ring capacity, in events.
	DefaultEventBuffer = 4096
	// DefaultDrainTimeout bounds how long drain waits for in-flight jobs
	// before cancelling them.
	DefaultDrainTimeout = 15 * time.Second
	// DefaultSeed and DefaultHorizon mirror the worksim façade defaults so
	// a daemon run and a worksim.Open run agree without options.
	DefaultSeed    int64 = 42
	DefaultHorizon       = 10 * time.Minute
	// maxRequestBody bounds request bodies (a scenario spec is ~1 KiB).
	maxRequestBody = 1 << 20
)

// Connection bounds of the http.Server that Serve runs. There is no write
// timeout: SSE streams stay open for a whole run.
var (
	// readHeaderTimeout closes a connection whose request headers have not
	// arrived in full by then, so a client trickling a header cannot hold
	// the connection open.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection left idle between
	// requests for that long.
	idleTimeout = 2 * time.Minute
)

// Config configures a Server. The zero value is serveable: no auth (every
// request accepted), default rate limits, quotas and buffers.
type Config struct {
	// Version is reported by GET /v1/version (the worksim façade version).
	Version string
	// APIKeys is the static key set. Empty disables authentication;
	// otherwise every request (except healthz/version) must present a key
	// via `Authorization: Bearer <key>` or `X-API-Key`.
	APIKeys []string
	// RatePerSec and Burst parameterise the per-key token bucket
	// (anonymous requests share one bucket). RatePerSec < 0 disables rate
	// limiting.
	RatePerSec float64
	Burst      int
	// MaxConcurrentJobs caps simultaneously active run+sweep jobs;
	// submissions beyond it are rejected with 429. < 0 disables the quota.
	MaxConcurrentJobs int
	// EventBuffer is the per-run SSE replay ring capacity in events. Slow
	// consumers that fall more than EventBuffer events behind lose the
	// evicted prefix (flagged with an SSE comment) instead of stalling the
	// simulation.
	EventBuffer int
	// DrainTimeout bounds how long Serve waits for in-flight jobs after
	// its context fires before cancelling them.
	DrainTimeout time.Duration
	// CacheDir, when non-empty, roots a content-addressed result cache
	// shared by every sweep the daemon runs: completed (scenario, profile,
	// seed) runs are stored there and repeated sweeps are served from disk,
	// with per-sweep cached-run counts reported in progress. Empty disables
	// caching.
	CacheDir string
	// Logger receives structured request and job-lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// Now supplies wall-clock time for rate limiting and request timing;
	// nil uses time.Now. Injectable so tests can steer the token buckets.
	Now func() time.Time
}

// Server hosts the REST API over the simulation engine. Create one with
// New, mount Handler on any mux, or run ListenAndServe/Serve for the full
// lifecycle including graceful drain.
type Server struct {
	cfg  Config
	log  *slog.Logger
	now  func() time.Time
	auth *authenticator

	runs   *registry[*runJob]
	sweeps *registry[*sweepJob]

	jobs     jobGroup
	active   atomic.Int64
	draining atomic.Bool

	handler http.Handler
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = DefaultRatePerSec
	}
	if cfg.Burst == 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = DefaultMaxConcurrentJobs
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = DefaultEventBuffer
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	if cfg.Now == nil {
		// Serving infrastructure reads the wall clock; simulation state
		// never does.
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		now:    cfg.Now,
		auth:   newAuthenticator(cfg.APIKeys, cfg.RatePerSec, cfg.Burst, cfg.Now),
		runs:   newRegistry[*runJob]("r"),
		sweeps: newRegistry[*sweepJob]("w"),
	}
	s.handler = s.routes()
	return s
}

// routes assembles the API surface behind the auth, rate-limit and logging
// middleware.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	return s.logging(s.authenticate(mux))
}

// Handler returns the server's HTTP handler (auth + rate limiting + logging
// included), for callers that own the http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether the server has stopped accepting new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveJobs returns the number of currently active (pending or running)
// run and sweep jobs.
func (s *Server) ActiveJobs() int { return int(s.active.Load()) }

// Serve runs the HTTP server on ln until ctx fires, then drains: it stops
// accepting connections and new submissions, waits up to DrainTimeout for
// in-flight jobs to finish, cancels the stragglers, and returns once every
// job goroutine and connection has wound down. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	httpSrv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		// Listener failure before any drain was requested.
		return err
	case <-ctx.Done():
	}
	return s.drain(httpSrv)
}

// ListenAndServe binds addr and calls Serve. It reports the bound address
// through onListen (when non-nil) before serving, so callers using ":0" can
// learn the chosen port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

// drain executes the graceful-shutdown sequence described on Serve.
func (s *Server) drain(httpSrv *http.Server) error {
	s.draining.Store(true)
	timeout := s.cfg.DrainTimeout
	s.log.Info("drain: stopped accepting new work",
		"activeJobs", s.active.Load(), "timeout", timeout.String())

	// Close the listener and start winding connections down; SSE streams
	// end as their jobs finish below. The shutdown context outlives the
	// job deadline so handlers of freshly-cancelled jobs can flush.
	shCtx, cancelSh := context.WithTimeout(context.Background(), 2*timeout)
	defer cancelSh()
	shErr := make(chan error, 1)
	go func() { shErr <- httpSrv.Shutdown(shCtx) }()

	done := make(chan struct{})
	go func() { s.jobs.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.log.Warn("drain: deadline reached, cancelling in-flight jobs",
			"activeJobs", s.active.Load())
		s.cancelAllJobs()
		<-done
	}
	err := <-shErr
	s.log.Info("drain: complete", "err", errString(err))
	return err
}

// cancelAllJobs fires every registered job's context. Finished jobs ignore
// it; active ones stop between control ticks.
func (s *Server) cancelAllJobs() {
	for _, j := range s.runs.all() {
		j.cancel()
	}
	for _, j := range s.sweeps.all() {
		j.cancel()
	}
}

// acquireJobSlot reserves quota for one job, or reports the violated limit.
func (s *Server) acquireJobSlot() *apiError {
	if s.draining.Load() {
		return &apiError{Status: http.StatusServiceUnavailable, Code: "draining",
			Message: "server is draining and no longer accepts new work"}
	}
	if max := s.cfg.MaxConcurrentJobs; max > 0 && s.active.Load() >= int64(max) {
		return &apiError{Status: http.StatusTooManyRequests, Code: "quota_exceeded",
			Message: "max concurrent jobs reached; retry after an active run or sweep finishes"}
	}
	s.active.Add(1)
	return nil
}

// releaseJobSlot returns a reserved slot once the job goroutine ends.
func (s *Server) releaseJobSlot() { s.active.Add(-1) }

// jobGroup is a WaitGroup the drain path can Wait on repeatedly.
type jobGroup struct{ wg atomic.Int64 }

func (g *jobGroup) Add(n int64) { g.wg.Add(n) }

// Wait spins until every registered job goroutine has exited. Jobs observe
// cancelled contexts between control ticks, so the wait is short-lived.
func (g *jobGroup) Wait() {
	for g.wg.Load() > 0 {
		time.Sleep(5 * time.Millisecond)
	}
}

// discardHandler is a slog.Handler that drops everything (slog.DiscardHandler
// arrives in go1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
