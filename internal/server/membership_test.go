package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/fleet"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// newMemberServer builds a test server that is a fleet member alongside
// one unreachable peer, with NewPeer wired so live joins can resolve
// clients for nodes that appear later.
func newMemberServer(t *testing.T, st *store.Store, self, other string) (string, *fleet.Fleet) {
	t.Helper()
	fl, err := fleet.New(fleet.Config{
		Self: self, Nodes: []string{self, other}, Replicas: 2, Store: st,
		NewPeer: func(name string) fleet.Peer { return storeclient.New(name, storeclient.WithRetries(0)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st, Fleet: fl})
	return ts.URL, fl
}

func postJSON(t *testing.T, url string, body any) (*http.Response, MembershipResponse) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MembershipResponse
	_ = json.NewDecoder(resp.Body).Decode(&mr)
	return resp, mr
}

// TestPingEndpoint: the heartbeat answers the member list (standalone:
// epoch 0, nothing to adopt) and refuses anything but GET.
func TestPingEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	standalone := newTestServer(t, Config{Store: st})
	resp, err := http.Get(standalone.URL + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	var mr MembershipResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mr.Epoch != 0 || len(mr.Nodes) != 0 {
		t.Fatalf("standalone ping = %+v, want epoch 0 and no nodes", mr)
	}

	self, other := "http://a.invalid", "http://127.0.0.1:1"
	url, _ := newMemberServer(t, st, self, other)
	resp, err = http.Get(url + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if mr.Epoch != 1 || len(mr.Nodes) != 2 {
		t.Fatalf("fleet ping = %+v, want epoch 1 with 2 nodes", mr)
	}

	if resp, err = http.Post(url+"/v1/ping", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST ping status = %d, want 405", resp.StatusCode)
	}
}

// pushMembership posts m to url as one KindMemberList frame.
func pushMembership(t *testing.T, url string, m codec.MemberList) (*http.Response, MembershipResponse) {
	t.Helper()
	var enc codec.Encoder
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(enc.AppendMemberList(nil, &m)))
	req.Header.Set("Content-Type", codec.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MembershipResponse
	_ = json.NewDecoder(resp.Body).Decode(&mr)
	return resp, mr
}

// TestMembershipPush: a pushed superseding member-list frame is applied;
// a stale push answers the newer local list with applied=false;
// malformed lists are rejected, and a JSON body is refused with 415
// without touching the membership.
func TestMembershipPush(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self, other := "http://a.invalid", "http://127.0.0.1:1"
	url, fl := newMemberServer(t, st, self, other)

	grown := codec.MemberList{Epoch: 5, Nodes: []string{self, other, "http://127.0.0.1:2"}}
	resp, mr := pushMembership(t, url+"/v1/membership", grown)
	if resp.StatusCode != http.StatusOK || !mr.Applied || mr.Epoch != 5 {
		t.Fatalf("push = %d %+v, want applied at epoch 5", resp.StatusCode, mr)
	}
	if fl.View().Epoch() != 5 {
		t.Fatalf("fleet epoch %d after push, want 5", fl.View().Epoch())
	}

	// Stale push: not an error — the answer carries the newer list.
	resp, mr = pushMembership(t, url+"/v1/membership", codec.MemberList{Epoch: 2, Nodes: []string{self, other}})
	if resp.StatusCode != http.StatusOK || mr.Applied || mr.Epoch != 5 {
		t.Fatalf("stale push = %d %+v, want unapplied with current epoch 5", resp.StatusCode, mr)
	}

	resp, mr = pushMembership(t, url+"/v1/membership", codec.MemberList{Epoch: 6, Nodes: []string{self, other}})
	if resp.StatusCode != http.StatusOK || !mr.Applied || fl.View().Epoch() != 6 {
		t.Fatalf("push = %d %+v (fleet epoch %d), want applied at 6", resp.StatusCode, mr, fl.View().Epoch())
	}

	if resp, _ = pushMembership(t, url+"/v1/membership", codec.MemberList{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("epoch-0 push status = %d, want 400", resp.StatusCode)
	}

	// A JSON body is refused outright: 415, a JSON error, and the
	// membership it would have superseded with stays as it was.
	before := fl.View().Membership()
	b, _ := json.Marshal(codec.MemberList{Epoch: 9, Nodes: []string{self}})
	jresp, err := http.Post(url+"/v1/membership", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var jerr map[string]string
	_ = json.NewDecoder(jresp.Body).Decode(&jerr)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusUnsupportedMediaType || jerr["error"] == "" {
		t.Fatalf("JSON push = %d %v, want 415 with a JSON error", jresp.StatusCode, jerr)
	}
	if after := fl.View().Membership(); after.Epoch != before.Epoch || len(after.Nodes) != len(before.Nodes) {
		t.Fatalf("refused JSON push changed membership: %+v -> %+v", before, after)
	}

	standalone := newTestServer(t, Config{Store: st})
	if resp, _ = pushMembership(t, standalone.URL+"/v1/membership", grown); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone push status = %d, want 404", resp.StatusCode)
	}
}

// TestJoinLeaveEndpoints drives the admin pair: join grows the epoch
// and list, leave shrinks them, the last member cannot leave, and a
// self-leave runs the drain before acknowledging.
func TestJoinLeaveEndpoints(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self, other := "http://a.invalid", "http://127.0.0.1:1"
	url, fl := newMemberServer(t, st, self, other)

	newcomer := "http://127.0.0.1:2"
	resp, mr := postJSON(t, url+"/v1/join", adminNodeRequest{Node: newcomer})
	if resp.StatusCode != http.StatusOK || mr.Epoch != 2 || len(mr.Nodes) != 3 {
		t.Fatalf("join = %d %+v, want epoch 2 with 3 nodes", resp.StatusCode, mr)
	}
	if !fl.View().Has(newcomer) {
		t.Fatal("fleet does not list the joined node")
	}

	resp, mr = postJSON(t, url+"/v1/leave", adminNodeRequest{Node: newcomer})
	if resp.StatusCode != http.StatusOK || mr.Epoch != 3 || len(mr.Nodes) != 2 {
		t.Fatalf("leave = %d %+v, want epoch 3 with 2 nodes", resp.StatusCode, mr)
	}

	// Self-leave: proposes the shrunk list, then drains (empty store
	// here, so zero pushes) before acknowledging.
	resp, mr = postJSON(t, url+"/v1/leave", adminNodeRequest{Node: self})
	if resp.StatusCode != http.StatusOK || mr.Drained != 0 {
		t.Fatalf("self-leave = %d %+v", resp.StatusCode, mr)
	}
	if slices.Contains(fl.View().Owners("SP|B|60|post-leave", nil), fl.Self()) {
		t.Fatal("departed server still claims ownership")
	}

	// The survivor is now alone; removing it must refuse.
	resp, _ = postJSON(t, url+"/v1/leave", adminNodeRequest{Node: other})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("last-member leave status = %d, want 503", resp.StatusCode)
	}

	if resp, _ = postJSON(t, url+"/v1/join", adminNodeRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty join status = %d, want 400", resp.StatusCode)
	}
}

// TestTransferEndpoint: the bootstrap stream serves exactly the shard
// entries the named node owns, always as one KindRangeTransfer frame;
// naming a stale epoch answers 409 with the current membership as JSON.
func TestTransferEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	self, other := "http://a.invalid", "http://127.0.0.1:1"
	url, fl := newMemberServer(t, st, self, other)

	wantOwned := map[string]bool{}
	for i := 0; i < 40; i++ {
		k := arcs.HistoryKey{App: "BT", Workload: "C", CapW: float64(40 + i%5), Region: fmt.Sprintf("r%d", i)}
		st.Save(k, arcs.ConfigValues{Threads: 1 + i%8}, 1+float64(i%3))
		for _, o := range fl.View().Owners(k.String(), nil) {
			if o == other {
				wantOwned[k.String()] = true
			}
		}
	}
	if len(wantOwned) == 0 {
		t.Fatal("setup: the peer owns nothing")
	}

	got := map[string]bool{}
	for shard := 0; shard < store.NumShards; shard++ {
		// No Accept header: one CRC-framed KindRangeTransfer per shard
		// regardless.
		resp, err := http.Get(fmt.Sprintf("%s/v1/transfer?shard=%d&for=%s&epoch=%d", url, shard, other, fl.View().Epoch()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		kind, payload, _, err := codec.Frame(buf.Bytes())
		if err != nil || kind != codec.KindRangeTransfer {
			t.Fatalf("shard %d: frame kind %#x err %v", shard, kind, err)
		}
		var dec codec.Decoder
		tr, err := dec.DecodeRangeTransfer(payload)
		if err != nil {
			t.Fatal(err)
		}
		if int(tr.Shard) != shard || tr.Epoch != fl.View().Epoch() {
			t.Fatalf("shard %d: transfer header = shard %d epoch %d", shard, tr.Shard, tr.Epoch)
		}
		for _, e := range tr.Entries {
			got[e.Key.String()] = true
		}
	}
	if len(got) != len(wantOwned) {
		t.Fatalf("transfer served %d entries, want %d", len(got), len(wantOwned))
	}
	for ck := range wantOwned {
		if !got[ck] {
			t.Fatalf("owned key %q missing from transfer", ck)
		}
	}

	// Stale epoch: 409 carrying the current membership.
	resp, err := http.Get(fmt.Sprintf("%s/v1/transfer?shard=0&for=%s&epoch=99", url, other))
	if err != nil {
		t.Fatal(err)
	}
	var mr MembershipResponse
	_ = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || mr.Epoch != fl.View().Epoch() {
		t.Fatalf("stale-epoch transfer = %d %+v, want 409 with epoch %d", resp.StatusCode, mr, fl.View().Epoch())
	}

	for _, q := range []string{"shard=-1&for=x&epoch=1", "shard=16&for=x&epoch=1", "shard=0&epoch=1", "shard=0&for=x&epoch=zz"} {
		resp, err := http.Get(url + "/v1/transfer?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("transfer %q status = %d, want 400", q, resp.StatusCode)
		}
	}

	// The epoch-conflict counter moved.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "arcsd_fleet_transfer_epoch_conflicts_total 1") {
		t.Fatal("metrics missing the transfer epoch-conflict count")
	}
}
