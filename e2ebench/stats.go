package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1): the value
// at rank ceil(q·n) of the sorted samples. It sorts xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// median is the nearest-rank median of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeMedian runs fn n times and returns the median wall time in ms.
func timeMedian(n int, fn func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t0))
	}
	return median(xs), nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS lowers the process's VmHWM to its current RSS, so the
// peak measured afterwards excludes set-up repetitions that were torn
// down. It needs Linux 4.0+; elsewhere the peak covers the process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, sc.Err()
}

// goRuntime is a reading of the Go runtime's cumulative counters.
type goRuntime struct {
	AllocBytes uint64
	GCCycles   uint64
	PauseNS    uint64
}

func readGoRuntime() goRuntime {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var out goRuntime
	if samples[0].Value.Kind() == metrics.KindUint64 {
		out.AllocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		out.GCCycles = samples[1].Value.Uint64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.PauseNS = ms.PauseTotalNs
	return out
}
