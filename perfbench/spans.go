package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request or session share a parent; ID 0 is no parent.
// Times are nanoseconds since the log was created.
type span struct {
	id, parent int64
	name       string
	start, end int64
}

// maxSpansPerName bounds the spans of one name kept in memory: session-long
// steps ~2.3e5 ticks per pass, and per-tick latency is measured without
// spans anyway, so a run keeps the first maxSpansPerName spans of a name and
// counts the rest.
const maxSpansPerName = 100_000

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced phases pay one nil check per call site.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	s       []span
	perName map[string]int
	dropped int
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), perName: map[string]int{}}
}

// keep reports whether one more span of name fits under the cap, counting
// it either way; l.mu is held.
func (l *spanLog) keep(name string) bool {
	if l.perName[name] == maxSpansPerName {
		l.dropped++
		return false
	}
	l.perName[name]++
	return true
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin returns a span's start time; end records it.
func (l *spanLog) begin() int64 {
	if l == nil {
		return 0
	}
	return l.now()
}

// end records a span that started at start and returns its ID.
func (l *spanLog) end(name string, parent, start int64) int64 {
	if l == nil {
		return 0
	}
	end := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.keep(name) {
		return 0
	}
	id := int64(len(l.s) + 1)
	l.s = append(l.s, span{id: id, parent: parent, name: name, start: start, end: end})
	return id
}

// reserve returns an ID for a parent span recorded later with endAs, so
// children can name it while it is still open.
func (l *spanLog) reserve(name string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.keep(name) {
		return 0
	}
	l.s = append(l.s, span{id: int64(len(l.s) + 1), name: name, start: -1})
	return int64(len(l.s))
}

// endAs completes a span reserved with reserve.
func (l *spanLog) endAs(id, parent, start int64) {
	if l == nil || id == 0 {
		return
	}
	end := l.now()
	l.mu.Lock()
	sp := &l.s[id-1]
	sp.parent, sp.start, sp.end = parent, start, end
	l.mu.Unlock()
}

// counts returns how many spans were kept and how many were dropped.
func (l *spanLog) counts() (kept, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.s), l.dropped
}

// durations returns the durations of every completed span with the given
// name, in nanoseconds.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.s {
		if s.name == name && s.start >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span name, the total time spans of that name spent
// outside their children: duration minus the union of the child intervals.
func (l *spanLog) selfTimes() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range l.s {
		if s.parent != 0 && s.start >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]int64)
	for _, s := range l.s {
		if s.start < 0 {
			continue
		}
		ivs := children[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.name] += s.end - s.start - covered
	}
	return out
}

// dump writes the spans as JSON lines after a header line carrying the host
// fingerprint and the per-name self times.
func (l *spanLog) dump(path string, host map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	kept, dropped := l.counts()
	hdr, _ := json.Marshal(map[string]any{"host": host, "selfNs": l.selfTimes(), "kept": kept, "dropped": dropped})
	w.Write(hdr)
	w.WriteByte('\n')
	l.mu.Lock()
	for _, s := range l.s {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"startNs":%d,"endNs":%d}`+"\n", s.id, s.parent, s.name, s.start, s.end)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// hostFingerprint identifies the machine and build a result came from.
func hostFingerprint(seed int64, workload string) map[string]any {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goamd64":    goamd64,
		"go":         runtime.Version(),
		"seed":       seed,
		"workload":   workload,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
