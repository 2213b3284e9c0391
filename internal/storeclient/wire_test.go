// Wire tests from the client's side: lookups, reports and every fleet
// RPC travel as binary frames against a real server, and the batched
// report buffer coalesces round trips.
package storeclient_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/server"
	"arcs/internal/store"
	. "arcs/internal/storeclient"
)

// newServedCounting is newServed plus a count of binary-typed responses,
// so tests can prove which encoding actually crossed the wire.
func newServedCounting(t *testing.T, binResponses *atomic.Int64, opts ...Option) *Client {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := server.New(server.Config{Store: st})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if strings.HasPrefix(w.Header().Get("Content-Type"), codec.ContentType) {
			binResponses.Add(1)
		}
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL, append([]Option{WithBackoff(time.Millisecond)}, opts...)...)
}

func testKey(region string) arcs.HistoryKey {
	return arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: region}
}

// TestBinaryClientBinaryServer: report, batch and lookup all travel as
// binary frames end to end and round-trip exactly.
func TestBinaryClientBinaryServer(t *testing.T) {
	var binResponses atomic.Int64
	c := newServedCounting(t, &binResponses)
	ctx := context.Background()
	cfg := arcs.ConfigValues{Threads: 16, Chunk: 8, FreqGHz: 2.2}

	if err := c.Report(ctx, testKey("r0"), cfg, 1.5); err != nil {
		t.Fatal(err)
	}
	batch := []Report{
		{Key: testKey("r1"), Cfg: cfg, Perf: 2},
		{Key: testKey("r2"), Cfg: cfg, Perf: 3},
	}
	if err := c.ReportBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	res, err := c.Lookup(ctx, testKey("r2"), LookupOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != cfg || res.Perf != 3 || res.Source != "exact" || res.Version != 1 {
		t.Fatalf("binary lookup = %+v", res)
	}
	// One ack per report RPC plus the config answer: all binary.
	if n := binResponses.Load(); n != 3 {
		t.Fatalf("binary responses = %d, want 3", n)
	}
}

// TestPeerRPCsWithoutOptions: a client built with no options at all
// replicates, forwards, pulls digests, pushes membership and transfers
// ranges against a real fleet-member server — every fleet RPC speaks
// the binary codec whatever the client was built with.
func TestPeerRPCsWithoutOptions(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self, other := "http://a.invalid", "http://127.0.0.1:1"
	fl, err := fleet.New(fleet.Config{
		Self: self, Nodes: []string{self, other}, Replicas: 2, Store: st,
		NewPeer: func(name string) fleet.Peer { return New(name, WithRetries(0)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var binResponses atomic.Int64
	srv := server.New(server.Config{Store: st, Fleet: fl})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if strings.HasPrefix(w.Header().Get("Content-Type"), codec.ContentType) {
			binResponses.Add(1)
		}
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	merged := store.Entry{Key: testKey("merged"), Cfg: arcs.ConfigValues{Threads: 16}, Perf: 1.5, Version: 7}
	if err := c.MergeEntries(ctx, []store.Entry{merged}); err != nil {
		t.Fatalf("MergeEntries: %v", err)
	}
	if e, ok := st.Get(merged.Key); !ok || e != merged {
		t.Fatalf("merged entry = %+v ok=%v, want %+v", e, ok, merged)
	}
	fwd := codec.Report{Key: testKey("forwarded"), Cfg: arcs.ConfigValues{Threads: 8}, Perf: 2.5}
	if err := c.ForwardReports(ctx, []codec.Report{fwd}); err != nil {
		t.Fatalf("ForwardReports: %v", err)
	}
	if e, ok := st.Get(fwd.Key); !ok || e.Cfg != fwd.Cfg || e.Perf != fwd.Perf {
		t.Fatalf("forwarded report = %+v ok=%v", e, ok)
	}

	digested := map[string]uint64{}
	transferred := map[string]store.Entry{}
	for shard := 0; shard < store.NumShards; shard++ {
		d, err := c.ShardDigest(ctx, shard)
		if err != nil {
			t.Fatalf("ShardDigest(%d): %v", shard, err)
		}
		for _, e := range d.Entries {
			digested[e.Key] = e.Version
		}
		entries, err := c.TransferRange(ctx, shard, other, fl.Epoch())
		if err != nil {
			t.Fatalf("TransferRange(%d): %v", shard, err)
		}
		for _, e := range entries {
			transferred[e.Key.String()] = e
		}
	}
	if len(digested) != 2 || digested[merged.Key.String()] != 7 || digested[fwd.Key.String()] != 1 {
		t.Fatalf("digests = %v, want both keys at their versions", digested)
	}
	if len(transferred) != 2 || transferred[merged.Key.String()] != merged {
		t.Fatalf("transfer = %v, want both entries", transferred)
	}
	var mismatch *fleet.EpochMismatchError
	if _, err := c.TransferRange(ctx, 0, other, fl.Epoch()+9); !errors.As(err, &mismatch) || mismatch.Current.Epoch != fl.Epoch() {
		t.Fatalf("stale-epoch transfer error = %v, want EpochMismatchError at epoch %d", err, fl.Epoch())
	}

	pushed := codec.MemberList{Epoch: 5, Nodes: []string{self, other, "http://127.0.0.1:2"}}
	got, err := c.PushMembership(ctx, pushed)
	if err != nil {
		t.Fatalf("PushMembership: %v", err)
	}
	if got.Epoch != 5 || len(got.Nodes) != 3 || fl.Epoch() != 5 {
		t.Fatalf("membership after push = %+v (fleet epoch %d), want epoch 5 with 3 nodes", got, fl.Epoch())
	}
	// Two acks, 2*NumShards digest and transfer frames; the 409 and the
	// membership answer are JSON.
	if want := int64(2 + 2*store.NumShards); binResponses.Load() != want {
		t.Fatalf("binary responses = %d, want %d", binResponses.Load(), want)
	}
}

// TestReportBufferFlushOnFull: the buffer flushes exactly at its bound
// and Flush pushes the tail.
func TestReportBufferFlushOnFull(t *testing.T) {
	var binResponses atomic.Int64
	c := newServedCounting(t, &binResponses)
	b := NewReportBuffer(c, 3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := b.Add(ctx, Report{Key: testKey(string(rune('a' + i))), Perf: float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Len(); got != 2 {
		t.Fatalf("buffered after auto-flush = %d, want 2", got)
	}
	if n := binResponses.Load(); n != 1 {
		t.Fatalf("round trips after 5 adds = %d, want 1 (one full batch)", n)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || binResponses.Load() != 2 {
		t.Fatalf("flush left %d buffered after %d round trips", b.Len(), binResponses.Load())
	}
	if res, err := c.Lookup(ctx, testKey("e"), LookupOpts{}); err != nil || res.Perf != 5 {
		t.Fatalf("tail record not served: %+v, %v", res, err)
	}
	if b.Dropped() != 0 {
		t.Fatalf("dropped = %d on a healthy server", b.Dropped())
	}
}

// TestReportBufferDropsOnDeadServer: flushes against an unreachable
// daemon drop their batch (bounded buffer) and count the loss.
func TestReportBufferDropsOnDeadServer(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // nothing listening: every request is a network error
	c := New(ts.URL, WithRetries(0), WithBackoff(time.Millisecond))
	b := NewReportBuffer(c, 2)
	ctx := context.Background()
	if err := b.Add(ctx, Report{Key: testKey("a"), Perf: 1}); err != nil {
		t.Fatalf("sub-threshold add must not touch the network: %v", err)
	}
	if err := b.Add(ctx, Report{Key: testKey("b"), Perf: 2}); err == nil {
		t.Fatal("flush against a dead server reported success")
	}
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
	if b.Len() != 0 {
		t.Fatalf("failed flush left %d records buffered", b.Len())
	}
}

// TestHistoryBatching: WithReportBatching turns N Saves into one RPC at
// the threshold, and Flush delivers the tail.
func TestHistoryBatching(t *testing.T) {
	var binResponses atomic.Int64
	c := newServedCounting(t, &binResponses)
	h := NewHistory(c, WithReportBatching(2))
	h.Save(testKey("a"), arcs.ConfigValues{Threads: 2}, 2)
	h.Save(testKey("b"), arcs.ConfigValues{Threads: 4}, 1) // threshold: one RPC
	h.Save(testKey("c"), arcs.ConfigValues{Threads: 8}, 3) // buffered tail
	if n := binResponses.Load(); n != 1 {
		t.Fatalf("3 Saves made %d RPCs, want 1", n)
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := binResponses.Load(); n != 2 {
		t.Fatalf("flush made %d total RPCs, want 2", n)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	// All three are served back.
	for _, r := range []string{"a", "b", "c"} {
		if _, ok := h.Load(testKey(r)); !ok {
			t.Fatalf("saved key %q not served after batch flush", r)
		}
	}
}
