// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks its outputs, and prints every metric by
// name with its unit. See README.md for the workloads, the metrics and how to
// run it.
//
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, measured from outside each layer by timing calls into
// its public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement as printed in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings and collects its metrics and
// output-check failures.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory for stores, digests and temp files

	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

// put records a metric. A non-finite value is an output defect, not a
// measurement, so it fails the run.
func (b *bench) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problemf("metric %s is %v", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// problemf records a failed output check; the run then reports correct=false.
func (b *bench) problemf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// logf writes a progress line to standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench[%s seed=%d]: %s\n", b.workload, b.seed, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver. A driver returns an error
// only when the benchmark itself cannot run; output defects go to problemf.
var workloads = map[string]func(*bench) error{
	"serve_cells": runServeCells,
	"flow_clips":  runFlowClips,
	"train":       runTrain,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload name: serve_cells, flow_clips or train")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "nominal measured seconds; fixes the amount of work")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
		dir      = flag.String("dir", ".bench_build", "scratch directory for stores, digests and temp files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if bad := ldmoEnv(os.Environ()); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: every number must come from the default engines without fault injection\n", strings.Join(bad, ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      *dir,
		metrics:  map[string]metric{},
	}
	host, err := json.Marshal(map[string]any{"host": hostInfo()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(host))

	total0, steal0 := cpuTimes()
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: workload attempted no operations")
		return 1
	}
	// A shared host's hypervisor can steal CPU time from this run; the
	// share stolen says how far its timings are from the host's own speed.
	total1, steal1 := cpuTimes()
	if total1 > total0 {
		fmt.Printf("{\"run\":{\"cpu_steal_share\":%.4f}}\n", (steal1-steal0)/(total1-total0))
	}
	out, err := json.Marshal(result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ldmoEnv returns the LDMO_* variables set in env. Each of them selects a
// reference engine, a worker count or fault injection, so a run under any of
// them would not measure the default program.
func ldmoEnv(env []string) []string {
	var bad []string
	for _, kv := range env {
		if strings.HasPrefix(kv, "LDMO_") {
			name, _, _ := strings.Cut(kv, "=")
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// checkDigest compares this run's result digest with the one recorded by the
// first run of the same workload and seed, recording it when there is none.
func (b *bench) checkDigest(digest string) {
	path := filepath.Join(b.dir, "digests", fmt.Sprintf("%s-%d", b.workload, b.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			b.problemf("result digest %s differs from the first run of seed %d (%s)", digest, b.seed, prev)
		}
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.problemf("record digest: %v", err)
			return
		}
		if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
			b.problemf("record digest: %v", err)
		}
	default:
		b.problemf("read digest: %v", err)
	}
	b.logf("result digest %s", digest)
}

// timedSetup runs set-up reps times, reports the median duration as
// setup_s, and returns the last set-up's state; earlier states are released
// with drop. Set-up is deterministic compute, so every repetition does the
// same work and the median is steady.
func timedSetup[T any](b *bench, reps int, setup func() (T, error), drop func(T)) (T, error) {
	var st, zero T
	var durs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if drop != nil {
				drop(st)
			}
			st = zero
		}
		// Every repetition starts from the same heap: the previous one's
		// garbage goes back to the OS untimed.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	debug.FreeOSMemory()
	b.logf("set-up %v s, peak RSS so far %.1f MB", durs, peakRSSMB())
	if !b.trace {
		b.put("setup_s", "s", median(durs))
	}
	return st, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// memDelta snapshots the Go heap counters around a measured phase.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// perOp returns MB allocated and GC cycles per operation since startMem.
func (m *memDelta) perOp(ops int) (allocMB, gcCycles float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if ops < 1 {
		ops = 1
	}
	allocMB = float64(end.TotalAlloc-m.start.TotalAlloc) / (1 << 20) / float64(ops)
	gcCycles = float64(end.NumGC-m.start.NumGC) / float64(ops)
	return allocMB, gcCycles
}
