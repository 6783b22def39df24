package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/worksim"
	"repro/worksim/serve"
)

const (
	daemonRate    = 50 // runs per second offered
	daemonHorizon = 2 * time.Minute
)

// daemon is an in-process worksimd on a loopback listener, with rate
// limiting off and the default job quota, plus a client holding at most
// nproc keep-alive connections.
type daemon struct {
	base   string
	client *http.Client
	stop   context.CancelFunc
	done   chan error
}

func startDaemon(nproc int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Config{RatePerSec: -1})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		stop: cancel,
		done: make(chan error, 1),
	}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	return d, nil
}

// close drains the server and waits until it has stopped.
func (d *daemon) close() error {
	d.stop()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// request is one run submitted to the daemon and what became of it.
type request struct {
	cell   cell
	seed   int64
	due    time.Time
	late   time.Duration // generator wake-up minus due time
	frames int           // SSE event frames before the end frame
	report []byte
	err    error
}

// do runs one request: POST the run, stream its SSE feed to the end frame,
// GET the report. Each call is a child span of one request span.
func (d *daemon) do(r *request, spans *spanLog) {
	root := spans.reserve("serve.request")
	rootStart := spans.begin()
	defer spans.endAs(root, 0, rootStart)

	s := spans.begin()
	body, _ := json.Marshal(map[string]any{
		"scenario": r.cell.scenario, "profile": r.cell.profile,
		"seed": r.seed, "horizonNs": int64(daemonHorizon),
	})
	var st struct {
		ID string `json:"id"`
	}
	if r.err = d.call(http.MethodPost, "/v1/runs", body, http.StatusAccepted, &st); r.err != nil {
		return
	}
	spans.end("serve.submit", root, s)

	s = spans.begin()
	if r.frames, r.err = d.stream(st.ID); r.err != nil {
		return
	}
	spans.end("serve.stream", root, s)

	s = spans.begin()
	var got struct {
		State  string          `json:"state"`
		Report json.RawMessage `json:"report"`
	}
	if r.err = d.call(http.MethodGet, "/v1/runs/"+st.ID, nil, http.StatusOK, &got); r.err != nil {
		return
	}
	spans.end("serve.fetch", root, s)
	if got.State != string(serve.StateDone) || len(got.Report) == 0 {
		r.err = fmt.Errorf("run %s ended %q without a report", st.ID, got.State)
		return
	}
	r.report = got.Report
}

// call sends one request and decodes the JSON response, failing on any
// status other than want.
func (d *daemon) call(method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, into)
}

// stream reads a run's SSE feed to its end frame and counts the event
// frames before it.
func (d *daemon) stream(id string) (int, error) {
	resp, err := d.client.Get(d.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		if line == "event: end" {
			return frames, nil
		}
		frames++
	}
	if err := sc.Err(); err != nil {
		return frames, err
	}
	return frames, errors.New("event stream ended without an end frame")
}

// openLoop offers n requests at rate per second: one generator goroutine
// wakes at each due time and hands the request to nproc workers, so a slow
// server builds a queue whose wait counts in each request's latency.
func (d *daemon) openLoop(reqs []*request, rate float64, nproc int, spans *spanLog) {
	work := make(chan *request, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				d.do(r, spans)
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(r.due))
		r.late = time.Since(r.due)
		work <- r
	}
	close(work)
	wg.Wait()
}

// daemonRequests builds n requests rotating over the catalog cells, with
// seed = base + i.
func daemonRequests(cells []cell, n int, base int64) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = &request{cell: cells[i%len(cells)], seed: base + int64(i)}
	}
	return out
}

// reference returns the report an in-process worksim.Open + Run produces
// for the request's (spec, profile, seed, horizon).
func reference(r *request) ([]byte, error) {
	s, err := worksim.Open(r.cell.spec, worksim.WithSeed(r.seed),
		worksim.WithHorizon(daemonHorizon), worksim.WithProfile(r.cell.prof))
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}
