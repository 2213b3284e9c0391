// Package storeclient is the client side of the arcsd tuning service: a
// small HTTP client with timeout/retry/backoff, a circuit breaker that
// stops hammering a dead daemon, a History adapter that lets the ARCS
// tuner warm-start directly from a served knowledge store (arcsrun
// -server) and keep answering locally while the daemon is down, and the
// peer RPCs fleet members use on each other. A client of an arcsd fleet
// may send to any member: the member forwards reports to the key's
// owners and proxies lookups one hop, so there is no client-side router.
package storeclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/store"
)

// ErrNotFound reports a lookup with no stored (or derivable) answer.
var ErrNotFound = errors.New("storeclient: no configuration found")

// DefaultMaxBackoff caps the exponential retry backoff so a long retry
// budget cannot doubling-sleep its way into multi-minute stalls.
const DefaultMaxBackoff = 2 * time.Second

// statusError is a terminal HTTP response carried as an error, so
// callers (and the circuit breaker) can distinguish "the server
// answered with an error" from "the server is unreachable".
type statusError struct {
	method, path string
	code         int
	msg          string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("storeclient: %s %s: status %d: %s", e.method, e.path, e.code, e.msg)
}

// HTTPStatus returns the response status code.
func (e *statusError) HTTPStatus() int { return e.code }

// Client talks to one arcsd instance. Idempotent requests (lookups, and
// reports — the store's keep-best rule makes re-posting harmless) are
// retried with jittered exponential backoff on network errors, 5xx
// responses and 429 sheds; a Retry-After header overrides the computed
// delay (both capped at the max backoff).
type Client struct {
	base       string
	hc         *http.Client
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration
	br         *breaker

	// breaker construction parameters, resolved in New after options run.
	brThreshold int
	brOpenFor   time.Duration
	brNow       func() time.Time

	jmu  sync.Mutex
	jrng *rand.Rand // jitter source; guarded by jmu
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed request is retried (default 2).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the initial retry backoff, doubled per attempt with
// ±50% jitter (default 50ms).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithMaxBackoff caps the per-attempt retry delay (default 2s).
func WithMaxBackoff(d time.Duration) Option { return func(c *Client) { c.maxBackoff = d } }

// WithJitterSeed seeds the backoff jitter PRNG, making retry timing
// reproducible in tests. The default seed is time-based: production
// clients should desynchronise, which is the whole point of jitter.
//
//arcslint:locked jmu options run at construction, before the client is shared
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.jrng = rand.New(rand.NewSource(seed)) }
}

// WithBreaker enables a circuit breaker: after threshold consecutive
// failed requests (network errors or retry-exhausted 5xx), requests fail
// instantly with ErrBreakerOpen for openFor, then a single half-open
// probe decides whether to close again.
func WithBreaker(threshold int, openFor time.Duration) Option {
	return func(c *Client) {
		c.brThreshold = threshold
		c.brOpenFor = openFor
	}
}

// WithBreakerClock injects the breaker's clock (tests drive the
// open→half-open transition deterministically). No effect without
// WithBreaker.
func WithBreakerClock(now func() time.Time) Option {
	return func(c *Client) { c.brNow = now }
}

// WithBinary has no effect: lookups, reports and every fleet RPC always
// use the binary wire codec (application/x-arcs-bin). It is kept only
// because cmd/arcsperf, which builds against this package unchanged,
// still passes it.
func WithBinary() Option { return func(*Client) {} }

// New creates a client for the arcsd at base (e.g. "http://localhost:8090").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		retries:    2,
		backoff:    50 * time.Millisecond,
		maxBackoff: DefaultMaxBackoff,
		jrng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	if c.brThreshold > 0 {
		c.br = newBreaker(c.brThreshold, c.brOpenFor, c.brNow)
	}
	return c
}

// BreakerState reports the breaker state name ("closed", "open",
// "half-open", or "disabled") and how many times it has tripped.
func (c *Client) BreakerState() (string, uint64) {
	if c.br == nil {
		return "disabled", 0
	}
	return c.br.snapshot()
}

// LookupOpts refines a Lookup.
type LookupOpts struct {
	// Arch names the architecture for a server-side search on a total
	// miss; empty disables searching.
	Arch string
	// Fallback allows a nearest-cap answer.
	Fallback bool
	// Search allows the server to run a search on a total miss (requires
	// Arch and a server-side budget).
	Search bool
	// Forwarded marks the request as already routed once by a fleet
	// member (codec.ForwardedHeader): the receiving server answers from
	// its own store and never re-forwards, so a stale ring cannot bounce
	// a lookup around the fleet.
	Forwarded bool
}

// Result is a served configuration. Key is the key of the stored entry
// that answered — for "fallback" answers it differs from the queried key
// (the nearest-cap context); for "exact" and "searched" it matches.
type Result struct {
	Key         arcs.HistoryKey
	Config      arcs.ConfigValues
	Perf        float64
	Version     uint64
	Source      string // "exact", "fallback" or "searched"
	CapDistance float64
}

// Lookup fetches the best configuration for a key. Returns ErrNotFound
// when the server has no answer.
func (c *Client) Lookup(ctx context.Context, k arcs.HistoryKey, opts LookupOpts) (Result, error) {
	q := url.Values{}
	q.Set("app", k.App)
	q.Set("workload", k.Workload)
	q.Set("cap", strconv.FormatFloat(k.CapW, 'g', -1, 64))
	q.Set("region", k.Region)
	if opts.Arch != "" {
		q.Set("arch", opts.Arch)
	}
	if !opts.Fallback {
		q.Set("fallback", "0")
	}
	if !opts.Search {
		q.Set("search", "0")
	}
	var res Result
	err := c.doSpec(ctx, reqSpec{
		method: http.MethodGet, path: "/v1/config?" + q.Encode(), forwarded: opts.Forwarded,
		onFrame: func(kind byte, payload []byte) error {
			if kind != codec.KindConfigAnswer {
				return fmt.Errorf("storeclient: unexpected frame kind %#x for config", kind)
			}
			dec := decPool.Get().(*codec.Decoder)
			defer decPool.Put(dec)
			var ans codec.ConfigAnswer
			if err := dec.DecodeConfigAnswer(payload, &ans); err != nil {
				return fmt.Errorf("storeclient: decode config answer: %w", err)
			}
			res = Result{
				Key: ans.Key, Config: ans.Cfg, Perf: ans.Perf, Version: ans.Version,
				Source: ans.Source, CapDistance: ans.CapDistance,
			}
			return nil
		},
	})
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Neighbors fetches the stored contexts nearest to k — the transfer
// seeds a surrogate search starts from (GET /v1/neighbors). max<=0
// selects the server's default. Returns ErrNotFound against a pre-
// neighbors arcsd (the endpoint 404s); callers treat that like an empty
// scan.
func (c *Client) Neighbors(ctx context.Context, k arcs.HistoryKey, max int) ([]arcs.Neighbor, error) {
	q := url.Values{}
	q.Set("app", k.App)
	q.Set("workload", k.Workload)
	q.Set("cap", strconv.FormatFloat(k.CapW, 'g', -1, 64))
	q.Set("region", k.Region)
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	var ns []arcs.Neighbor
	if err := c.doJSON(ctx, http.MethodGet, "/v1/neighbors?"+q.Encode(), nil, &ns); err != nil {
		return nil, err
	}
	return ns, nil
}

// Report ingests one search result into the served store: a
// ReportBatch of one record.
func (c *Client) Report(ctx context.Context, k arcs.HistoryKey, cfg arcs.ConfigValues, perf float64) error {
	return c.ReportBatch(ctx, []Report{{Key: k, Cfg: cfg, Perf: perf}})
}

// ReportBatch ingests many results in one round trip: one
// KindReportBatch frame on /v1/reports.
func (c *Client) ReportBatch(ctx context.Context, reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	return c.postFrame(ctx, reqSpec{path: "/v1/reports", onFrame: expectAck},
		func(enc *codec.Encoder, dst []byte) []byte { return enc.AppendReportBatch(dst, reports) })
}

// Report is one record for batched reporting (ReportBatch/ReportBuffer).
type Report = codec.Report

// expectAck is the onFrame for report RPCs: any verified Ack is fine.
func expectAck(kind byte, payload []byte) error {
	if kind != codec.KindAck {
		return fmt.Errorf("storeclient: unexpected frame kind %#x for ack", kind)
	}
	return nil
}

// Dump retrieves the full entry set.
func (c *Client) Dump(ctx context.Context) ([]store.Entry, error) {
	var out []store.Entry
	if err := c.doJSON(ctx, http.MethodGet, "/v1/dump", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health checks the daemon is up.
func (c *Client) Health(ctx context.Context) error {
	return c.doSpec(ctx, reqSpec{method: http.MethodGet, path: "/healthz"})
}

// reqSpec describes one logical request: what to send and how to decode
// the answer. A spec with onFrame asks for (Accept) and requires a
// binary frame response; otherwise a JSON response decodes into out.
type reqSpec struct {
	method, path string
	body         []byte
	binaryBody   bool // Content-Type: application/x-arcs-bin (else JSON)
	forwarded    bool // send codec.ForwardedHeader (intra-fleet routing)
	out          any  // JSON decode target; nil discards the body
	onFrame      func(kind byte, payload []byte) error
	// on409 turns a 409 Conflict body into a typed error (the fleet's
	// stale-epoch rejection carries the current member list). A nil
	// return falls through to the generic statusError.
	on409 func(body []byte) error
}

// encBuf pairs a codec.Encoder with its output buffer; jsonReqPool
// amortises JSON request encoding the same way. decPool keeps Decoder
// intern tables warm across calls.
type encBuf struct {
	enc codec.Encoder
	buf []byte
}

var (
	encPool     = sync.Pool{New: func() any { return new(encBuf) }}
	jsonReqPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	decPool     = sync.Pool{New: func() any { return new(codec.Decoder) }}
)

// doJSON runs doSpec with a pooled-buffer JSON body, decoding a JSON
// response into out (when non-nil).
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	return c.doJSONSpec(ctx, reqSpec{method: method, path: path, out: out}, body)
}

// doJSONSpec is doJSON for a caller-built spec (extra headers, custom
// decode): body (when non-nil) is JSON-encoded into a pooled buffer.
func (c *Client) doJSONSpec(ctx context.Context, spec reqSpec, body any) error {
	if body != nil {
		buf := jsonReqPool.Get().(*bytes.Buffer)
		defer jsonReqPool.Put(buf)
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			return fmt.Errorf("storeclient: encode request: %w", err)
		}
		spec.body = buf.Bytes()
	}
	return c.doSpec(ctx, spec)
}

// postFrame POSTs a binary body, encoded into a pooled buffer by encode,
// under spec.
func (c *Client) postFrame(ctx context.Context, spec reqSpec, encode func(enc *codec.Encoder, dst []byte) []byte) error {
	eb := encPool.Get().(*encBuf)
	defer encPool.Put(eb)
	eb.buf = encode(&eb.enc, eb.buf[:0])
	spec.method, spec.body, spec.binaryBody = http.MethodPost, eb.buf, true
	return c.doSpec(ctx, spec)
}

// doSpec gates one logical request through the circuit breaker, runs the
// retry loop, and feeds the outcome back into the breaker. Breaker
// classification: any HTTP response — including terminal 4xx and
// ErrNotFound — proves the daemon is alive and counts as success; only
// network failures and retry-exhausted 5xx count as failures. Context
// cancellation says nothing about the server and records neither.
func (c *Client) doSpec(ctx context.Context, spec reqSpec) error {
	if c.br != nil && !c.br.allow() {
		return fmt.Errorf("storeclient: %s %s: %w", spec.method, spec.path, ErrBreakerOpen)
	}
	err := c.attempt(ctx, spec)
	if c.br != nil {
		switch {
		case err == nil, errors.Is(err, ErrNotFound):
			c.br.record(true)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		default:
			var se *statusError
			c.br.record(errors.As(err, &se) && se.code < 500)
		}
	}
	return err
}

// attempt issues one request with the retry/backoff policy. Non-429 4xx
// responses are terminal (404 maps to ErrNotFound); network errors, 5xx
// and 429 retry.
func (c *Client) attempt(ctx context.Context, spec reqSpec) error {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.delay(attempt, retryAfter)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		retryAfter = 0
		var rd io.Reader
		if spec.body != nil {
			rd = bytes.NewReader(spec.body)
		}
		req, err := http.NewRequestWithContext(ctx, spec.method, c.base+spec.path, rd)
		if err != nil {
			return fmt.Errorf("storeclient: build request: %w", err)
		}
		if spec.body != nil {
			if spec.binaryBody {
				req.Header.Set("Content-Type", codec.ContentType)
			} else {
				req.Header.Set("Content-Type", "application/json")
			}
		}
		if spec.onFrame != nil {
			req.Header.Set("Accept", codec.ContentType)
		}
		if spec.forwarded {
			req.Header.Set(codec.ForwardedHeader, "1")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return ErrNotFound
		case resp.StatusCode == http.StatusConflict && spec.on409 != nil:
			if cerr := spec.on409(data); cerr != nil {
				return cerr
			}
			return &statusError{method: spec.method, path: spec.path, code: resp.StatusCode, msg: firstLine(data)}
		case resp.StatusCode >= 500, resp.StatusCode == http.StatusTooManyRequests:
			lastErr = &statusError{method: spec.method, path: spec.path, code: resp.StatusCode, msg: firstLine(data)}
			if secs, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			continue
		case resp.StatusCode >= 400:
			return &statusError{method: spec.method, path: spec.path, code: resp.StatusCode, msg: firstLine(data)}
		}
		if spec.onFrame != nil {
			kind, payload, _, ferr := codec.Frame(data)
			if ferr != nil {
				return fmt.Errorf("storeclient: bad binary response: %w", ferr)
			}
			return spec.onFrame(kind, payload)
		}
		if spec.out == nil {
			return nil
		}
		if err := json.Unmarshal(data, spec.out); err != nil {
			return fmt.Errorf("storeclient: decode response: %w", err)
		}
		return nil
	}
	return fmt.Errorf("storeclient: %s %s failed after %d attempts: %w", spec.method, spec.path, c.retries+1, lastErr)
}

// delay computes the sleep before retry attempt n (1-based): doubling
// backoff with ±50% jitter, capped at maxBackoff. A server-sent
// Retry-After overrides the computed delay — the server knows its own
// overload better than our schedule — but is capped the same way.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > c.maxBackoff {
			return c.maxBackoff
		}
		return retryAfter
	}
	d := c.backoff
	// Stop shifting once past the cap; unbounded doubling overflows.
	for i := 1; i < attempt && d < c.maxBackoff; i++ {
		d <<= 1
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	if d <= 0 {
		return 0
	}
	// Jitter to [d/2, 3d/2): desynchronises retry herds across clients.
	c.jmu.Lock()
	j := c.jrng.Int63n(int64(d))
	c.jmu.Unlock()
	if d = d/2 + time.Duration(j); d > c.maxBackoff {
		d = c.maxBackoff
	}
	return d
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
