package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"ldmo/internal/fft"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample with at least a share p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported tail percentile:
// with fewer, the percentile is one or two samples and jumps between runs.
const minBeyond = 10

// tail returns the highest percentile level of tailLevels with at least
// minBeyond of the n samples strictly beyond its nearest rank, and the value
// there. ok is false when not even the median has that many beyond it.
func tail(xs []float64) (level, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLevels {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// hostInfo is the host block printed once per result: what the numbers were
// measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"numcpu":       runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"cpu_features": fft.CPUFeatures(),
		"fft_asm":      fft.ASMEnabled(),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the jiffies spent
// by all CPUs in total and while stolen by the hypervisor.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields that
	// may follow are already counted in user and nice.
	for i, f := range fields[1:9] {
		var v float64
		fmt.Sscanf(f, "%g", &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
