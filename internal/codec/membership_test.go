package codec

import (
	"reflect"
	"testing"
)

// sampleTransfer is one shard range as /v1/transfer sends it: a few
// entries, which the codec keeps in the order given.
func sampleTransfer() []Entry { return sampleEntries() }

func TestMemberListRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for _, m := range []MemberList{
		{Epoch: 1, Nodes: []string{"http://a:1809"}},
		{Epoch: 42, Nodes: []string{"http://a:1809", "http://b:1809", "http://c:1809"}},
		{Epoch: 9, Nodes: nil},
	} {
		buf := enc.AppendMemberList(nil, &m)
		kind, payload, n, err := Frame(buf)
		if err != nil || kind != KindMemberList || n != len(buf) {
			t.Fatalf("Frame = kind %#x n %d err %v", kind, n, err)
		}
		got, err := dec.DecodeMemberList(payload)
		if err != nil {
			t.Fatalf("decode member list: %v", err)
		}
		if got.Epoch != m.Epoch || len(got.Nodes) != len(m.Nodes) {
			t.Fatalf("round trip = %+v, want %+v", got, m)
		}
		for i := range m.Nodes {
			if got.Nodes[i] != m.Nodes[i] {
				t.Fatalf("node %d = %q, want %q", i, got.Nodes[i], m.Nodes[i])
			}
		}
	}
}

// TestRangeTransferRoundTrip: a shard range, and an empty one, survive
// the KindSnapshot frame /v1/transfer answers with, row for row.
func TestRangeTransferRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for _, tr := range [][]Entry{sampleTransfer(), nil} {
		buf := enc.AppendSnapshot(nil, tr)
		kind, payload, n, err := Frame(buf)
		if err != nil || kind != KindSnapshot || n != len(buf) {
			t.Fatalf("Frame = kind %#x n %d err %v", kind, n, err)
		}
		got, err := dec.DecodeSnapshot(payload)
		if err != nil {
			t.Fatalf("decode range transfer: %v", err)
		}
		if len(got) != len(tr) {
			t.Fatalf("round trip = %d rows, want %d", len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Errorf("row %d: %+v, want %+v", i, got[i], tr[i])
			}
		}
	}
}

// TestRangeTransferDeterministic: equal ranges encode byte-identically
// (the snapshot layout's determinism contract), and re-encoding with a
// warm encoder is allocation-free — the contract
// BenchmarkCodecEncodeSnapshot gates.
func TestRangeTransferDeterministic(t *testing.T) {
	tr := sampleTransfer()
	var enc1, enc2 Encoder
	a := enc1.AppendSnapshot(nil, tr)
	b := enc2.AppendSnapshot(nil, tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal transfers encoded differently")
	}
	buf := a
	allocs := testing.AllocsPerRun(100, func() {
		buf = enc1.AppendSnapshot(buf[:0], tr)
	})
	if allocs != 0 {
		t.Errorf("warm transfer encode allocates %.1f/op, want 0", allocs)
	}
}

// TestRangeTransferCorruption: a torn or bit-flipped transfer frame is
// rejected as a unit — the resumability guarantee: the bootstrap either
// merges a whole CRC-valid shard or nothing.
func TestRangeTransferCorruption(t *testing.T) {
	tr := sampleTransfer()
	var enc Encoder
	buf := enc.AppendSnapshot(nil, tr)

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(buf); n++ {
			if _, _, _, err := Frame(buf[:n]); err == nil {
				t.Errorf("torn frame of %d/%d bytes accepted", n, len(buf))
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		for i := range buf {
			bad := append([]byte{}, buf...)
			bad[i] ^= 0x40
			kind, payload, _, err := Frame(bad)
			if err != nil || kind != KindSnapshot {
				continue // rejected at the frame layer: good
			}
			var dec Decoder
			if got, derr := dec.DecodeSnapshot(payload); derr == nil && reflect.DeepEqual(got, tr) {
				t.Errorf("flip at %d silently produced the original transfer", i)
			}
		}
	})
	t.Run("member-list-truncated-payload", func(t *testing.T) {
		m := MemberList{Epoch: 3, Nodes: []string{"http://a:1809", "http://b:1809"}}
		framed := enc.AppendMemberList(nil, &m)
		_, payload, _, err := Frame(framed)
		if err != nil {
			t.Fatal(err)
		}
		var dec Decoder
		for n := 0; n < len(payload); n++ {
			if _, err := dec.DecodeMemberList(payload[:n]); err == nil {
				t.Errorf("member list payload truncated to %d/%d decoded", n, len(payload))
			}
		}
	})
}
