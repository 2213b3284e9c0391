package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted samples by the
// nearest-rank rule, so every reported value is one that was measured.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is the slice of Go runtime state a measured pass is
// charged with.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		mallocs: mem.Mallocs, bytes: mem.TotalAlloc,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(),
	}
}

// liveHeapMiB is the heap still reachable after forced collections:
// what the system under test retains once its work is done. The second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// liveHeapDuring runs f while polling, every 10 ms, the live heap the GC
// last marked, and returns the median in MiB: the working set of work
// that keeps nothing once it is done. Under a high allocation rate the
// GC's marks overcount (what is allocated while it marks counts as
// live), so a system that retains state is read with liveHeapMiB.
func liveHeapDuring(f func()) float64 {
	runtime.GC() // the first readings describe f, not what ran before
	stop, done := make(chan struct{}), make(chan struct{})
	var xs []float64 // written by the poller until done is closed
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			xs = append(xs, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	f()
	close(stop)
	<-done
	return median(xs) / (1 << 20)
}

// ratio divides, answering 0 when there is nothing to divide by (a
// layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
