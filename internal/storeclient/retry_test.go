package storeclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	arcs "arcs/internal/core"
)

func TestDelayJitterStaysInBoundsAndCaps(t *testing.T) {
	c := New("http://x", WithBackoff(100*time.Millisecond), WithMaxBackoff(400*time.Millisecond), WithJitterSeed(1))
	varied := false
	var prev time.Duration
	for i := 0; i < 200; i++ {
		d := c.delay(1, 0)
		if d < 50*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("attempt-1 delay %v outside ±50%% of 100ms", d)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("200 jittered delays were all identical")
	}
	// Attempt 4 would be 800ms doubled; the cap clamps it to at most 400ms.
	for i := 0; i < 200; i++ {
		if d := c.delay(4, 0); d > 400*time.Millisecond || d < 200*time.Millisecond {
			t.Fatalf("capped delay %v outside [200ms, 400ms]", d)
		}
	}
	// A huge attempt number must not overflow the shift.
	if d := c.delay(500, 0); d > 400*time.Millisecond || d < 0 {
		t.Fatalf("attempt-500 delay %v escaped the cap", d)
	}
}

func TestDelayJitterIsDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		c := New("http://x", WithBackoff(time.Millisecond), WithJitterSeed(seed))
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = c.delay(1, 0)
		}
		return out
	}
	a, b := seq(9), seq(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDelayHonorsRetryAfter(t *testing.T) {
	c := New("http://x", WithBackoff(time.Millisecond), WithMaxBackoff(500*time.Millisecond), WithJitterSeed(1))
	if d := c.delay(1, 200*time.Millisecond); d != 200*time.Millisecond {
		t.Fatalf("Retry-After 200ms produced delay %v", d)
	}
	// The server's hint is still capped: it must not stall the tuner.
	if d := c.delay(1, time.Hour); d != 500*time.Millisecond {
		t.Fatalf("huge Retry-After produced delay %v, want the 500ms cap", d)
	}
}

func TestRetryOn429WithRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer srv.Close()
	// Max backoff below a second proves the Retry-After hint is capped,
	// not slept verbatim.
	c := New(srv.URL, WithRetries(2), WithBackoff(time.Millisecond), WithMaxBackoff(5*time.Millisecond), WithJitterSeed(1))
	start := time.Now()
	if _, err := c.Dump(context.Background()); err != nil {
		t.Fatalf("Dump after one 429: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retry slept %v; the 1s Retry-After was not capped", elapsed)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Minute, func() time.Time { return now })
	if !b.allow() {
		t.Fatal("fresh breaker rejected a request")
	}
	b.record(false)
	if !b.allow() {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.record(false)
	if b.allow() {
		t.Fatal("threshold reached but requests still pass")
	}
	if state, opens := b.snapshot(); state != "open" || opens != 1 {
		t.Fatalf("state %s/%d, want open/1", state, opens)
	}

	// Success resets the consecutive-failure count while closed.
	b2 := newBreaker(2, time.Minute, func() time.Time { return now })
	b2.record(false)
	b2.record(true)
	b2.record(false)
	if !b2.allow() {
		t.Fatal("interleaved success did not reset the failure count")
	}

	// Cool-down: exactly one half-open probe is admitted.
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("cool-down elapsed but probe rejected")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// Probe failure re-opens and restarts the clock.
	b.record(false)
	if b.allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatal("second cool-down elapsed but probe rejected")
	}
	b.record(true)
	if state, opens := b.snapshot(); state != "closed" || opens != 2 {
		t.Fatalf("state %s/%d after successful probe, want closed/2", state, opens)
	}
	if !b.allow() || !b.allow() {
		t.Fatal("closed breaker limited throughput")
	}
}

func TestHistoryLocalFallbackWithoutNetwork(t *testing.T) {
	// Nothing listens on this address: every remote call fails fast.
	c := New("http://127.0.0.1:1", WithRetries(0), WithBackoff(time.Millisecond))
	h := NewHistory(c, WithTimeout(time.Second))
	k := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "r"}

	h.Save(k, arcs.ConfigValues{Threads: 8}, 2.0)
	if cfg, ok := h.Load(k); !ok || cfg.Threads != 8 {
		t.Fatalf("local load = %+v ok=%v", cfg, ok)
	}
	near := arcs.HistoryKey{App: "SP", Workload: "B", CapW: 75, Region: "r"}
	if cfg, dist, ok := h.LoadNearest(near); !ok || dist != 5 || cfg.Threads != 8 {
		t.Fatalf("local nearest = %+v dist=%v ok=%v", cfg, dist, ok)
	}
	if h.LocalAnswers() != 2 {
		t.Fatalf("LocalAnswers = %d, want 2", h.LocalAnswers())
	}
	if err := h.Err(); err == nil {
		t.Fatal("network failures must still surface through Err")
	}
	// Len stays remote-only: an unreachable server reports empty.
	if n := h.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0 (remote-only)", n)
	}
}
