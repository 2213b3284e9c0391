package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are normalized for how fast the host ran. On a
// shared 2-vCPU VM the same deterministic work ran up to 2.3 times slower
// in one stretch of minutes than in the next, as other tenants came and
// went; no amount of work inside one run averages that out. A probe
// running beside the workload reads the host's slowness s (its kernel's
// CPU time ÷ hostNominalUS), and a run's times are divided, its rates
// multiplied, by s raised to the workload's hostExponent. The exponent
// differs by workload because a lookup waits on both vCPUs in turn (the
// client's, then the server's) and so slows about as s², while a suite of
// parallel experiments slows as s. README.md has the fit and the spreads
// before and after.

// hostNominalUS. Over 24 alternating runs the probe's reading
// correlated with throughput at -0.80 (lookup), -0.93 (ingest) and
// -0.83 (search), and the normalization halved the run-to-run spread of
// ops_per_s on lookup and ingest (README.md has the numbers).

// hostNominalUS is a typical probe reading on the development host in a
// calm period; it only sets the scale of normalized values.
const hostNominalUS = 640

// hostFactor is what a run's times are divided, and its rates
// multiplied, by: the probe's slowness raised to the workload's exponent.
func hostFactor(probeUS, exponent float64) float64 {
	f := math.Pow(probeUS/hostNominalUS, exponent)
	if !(f > 0) {
		return 1
	}
	return f
}

// hostProbe measures how fast the host is running this process while a
// run goes on: every 100 ms it runs a fixed kernel on its own OS thread
// and reads the thread's CPU time around it. CPU time, not wall time, so
// the reading ignores how long the probe waited for our own busy
// goroutines, but includes every way the host slows the vCPU down
// (a busy SMT sibling, a lower clock, time the vCPU was descheduled).
// The kernel touches nothing of the program under test.
type hostProbe struct {
	stop chan struct{}
	once sync.Once
	done chan struct{}
	us   []float64 // written by the probe goroutine until done is closed
}

func startHostProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		src := make([]int, 1<<13)
		r := rand.New(rand.NewSource(1))
		for i := range src {
			src[i] = r.Int()
		}
		work := make([]int, len(src))
		buf := make([]byte, 32<<10)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			t0 := threadCPU()
			copy(work, src)
			sort.Ints(work)
			for i := 0; i < 4; i++ {
				sha256.Sum256(buf)
			}
			h.us = append(h.us, float64(threadCPU()-t0)/float64(time.Microsecond))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the probe (once; later calls only read) and returns the
// mean kernel CPU time in µs with the slowest and fastest tenth of
// readings dropped.
func (h *hostProbe) finish() float64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	xs := append([]float64(nil), h.us...)
	sort.Float64s(xs)
	cut := len(xs) / 10
	xs = xs[cut : len(xs)-cut]
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// threadCPU is the calling thread's CPU time (Linux CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
