package storeclient

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen reports a request shed locally because the circuit
// breaker is open: the daemon has failed enough consecutive requests
// that hammering it (and blocking the tuner) is worse than failing fast.
var ErrBreakerOpen = errors.New("storeclient: circuit breaker open")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a consecutive-failure circuit breaker with half-open
// probing. Closed: everything passes. After threshold consecutive
// failures it opens: every request is shed instantly for openFor. Then
// it half-opens: exactly one probe request goes through; success closes
// the circuit, failure re-opens it and restarts the clock. The clock is
// injectable so chaos tests drive the state machine deterministically.
type breaker struct {
	threshold int
	openFor   time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState // guarded by mu
	fails    int          // consecutive failures while closed; guarded by mu
	openedAt time.Time    // when the breaker last opened; guarded by mu
	probing  bool         // a half-open probe is in flight; guarded by mu
	opens    uint64       // times the breaker tripped; guarded by mu
}

func newBreaker(threshold int, openFor time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, openFor: openFor, now: now}
}

// allow reports whether a request may proceed right now.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
	}
	return true
}

// record feeds one request outcome into the state machine. Outcomes
// where the server demonstrably responded (any HTTP status, including
// 4xx) count as success for breaker purposes except 5xx-exhausted runs;
// the caller does the classification.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.state = breakerClosed
		b.fails = 0
		b.probing = false
	} else {
		switch b.state {
		case breakerHalfOpen:
			// The probe failed: re-open and restart the cool-down clock.
			b.state = breakerOpen
			b.openedAt = b.now()
			b.probing = false
			b.opens++
		case breakerClosed:
			b.fails++
			if b.fails >= b.threshold {
				b.state = breakerOpen
				b.openedAt = b.now()
				b.opens++
			}
		case breakerOpen:
			// A request admitted before the trip finished late; the clock is
			// already running, nothing to update.
		}
	}
}

// snapshot returns the current state name and trip count (diagnostics).
func (b *breaker) snapshot() (string, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens
}
