// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public and internal packages, checks the
// outputs, and prints the end-to-end metrics (or, traced, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload session-long --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --list
//
// It runs from the root of a checkout and writes only under .bench_build/.
// Per-layer numbers are timed from outside, around calls into each layer's
// functions; nothing inside the simulator is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir holds everything a run writes: result caches and span dumps.
const outDir = ".bench_build"

// env is what a workload receives: its seed, its measuring budget, whether
// to record spans, and where to record them.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	spans   *spanLog
	nproc   int
}

// outcome is what a workload returns. e2e holds the end-to-end metrics of
// the untraced measuring phase; with tracing on, traced holds the same
// metrics of the traced phase and layer the per-layer metrics.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	traced            map[string]float64
	layer             map[string]float64
	notes             []string
}

func (o *outcome) failf(n int, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see --list)")
		seed    = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Int("seconds", 20, "seconds the measuring phase runs")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		list    = flag.Bool("list", false, "print every metric with its unit and the workloads that emit it")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, nproc: runtime.NumCPU()}
	if e.traced {
		e.spans = newSpanLog()
	}
	host := hostFingerprint(*seed, wl.name)
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)

	out, err := wl.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	metrics := out.e2e
	if e.traced {
		metrics = out.layer
		metrics["trace.overhead_frac"] = out.e2e["runs_per_cpu_s"]/out.traced["runs_per_cpu_s"] - 1
		path := filepath.Join(outDir, "spans", wl.name+".json")
		if err := e.spans.dump(path, host); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		kept, dropped := e.spans.counts()
		fmt.Printf("spans: %d written to %s (%d beyond the cap not kept)\n", kept, path, dropped)
	}
	if err := checkEmitted(metrics, e.traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalog(e.traced) {
		v := metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", wl.name, m.name, v)
			os.Exit(1)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, wl := range workloads {
		out[i] = wl.name
	}
	return out
}

// heapMB collects garbage twice (the second pass empties sync.Pool victim
// caches) and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
