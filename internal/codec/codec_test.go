package codec

import (
	"errors"
	"math"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

func sampleEntries() []Entry {
	return []Entry{
		{
			Key:     arcs.HistoryKey{App: "SP", Workload: "B", CapW: 70, Region: "x_solve"},
			Cfg:     arcs.ConfigValues{Threads: 16, Schedule: ompt.ScheduleGuided, Chunk: 8},
			Perf:    1.25,
			Version: 3,
		},
		{
			Key:     arcs.HistoryKey{App: "SP", Workload: "B", CapW: 55, Region: "y_solve"},
			Cfg:     arcs.ConfigValues{Threads: 8, Schedule: ompt.ScheduleDynamic, Chunk: 4, FreqGHz: 2.4, Bind: ompt.BindClose},
			Perf:    2.5,
			Version: 1,
		},
		{}, // all-zero entry must round-trip too
		{
			// Separator and escape characters in names must survive.
			Key:  arcs.HistoryKey{App: `a|b\c`, Workload: "w|", CapW: -12.5, Region: "r\\"},
			Cfg:  arcs.ConfigValues{Threads: 1},
			Perf: -0.5,
		},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for i, want := range sampleEntries() {
		buf := enc.AppendEntry(nil, &want)
		kind, payload, n, err := Frame(buf)
		if err != nil || kind != KindEntry || n != len(buf) {
			t.Fatalf("entry %d: Frame = kind %d n %d err %v", i, kind, n, err)
		}
		var got Entry
		if err := dec.DecodeEntry(payload, &got); err != nil {
			t.Fatalf("entry %d: decode: %v", i, err)
		}
		if got != want {
			t.Errorf("entry %d: round trip = %+v, want %+v", i, got, want)
		}
	}
}

// TestEntryKeepsNegativeZeroCap: -0 and 0 are distinct canonical keys,
// so an entry frame must carry the cap's sign, not elide it as zero.
func TestEntryKeepsNegativeZeroCap(t *testing.T) {
	var enc Encoder
	var dec Decoder
	want := Entry{Key: arcs.HistoryKey{App: "SP", Workload: "B", CapW: math.Copysign(0, -1), Region: "x_solve"}}
	_, payload, _, err := Frame(enc.AppendEntry(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	if err := dec.DecodeEntry(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(got.Key.CapW) || got.Key.String() != want.Key.String() {
		t.Errorf("decoded key %q, want %q", got.Key.String(), want.Key.String())
	}
}

func TestReportBatchRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	entries := sampleEntries()
	reports := make([]Report, len(entries))
	for i, e := range entries {
		reports[i] = Report{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf}
	}
	for _, batch := range [][]Report{nil, reports[:1], reports} {
		buf := enc.AppendReportBatch(nil, batch)
		kind, payload, _, err := Frame(buf)
		if err != nil || kind != KindReportBatch {
			t.Fatalf("Frame = kind %d err %v", kind, err)
		}
		var got []Report
		if err := dec.DecodeReportBatch(payload, func(r *Report) error {
			got = append(got, *r)
			return nil
		}); err != nil {
			t.Fatalf("decode batch: %v", err)
		}
		if len(got) != len(batch) {
			t.Fatalf("batch round trip: %d reports, want %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i] {
				t.Errorf("report %d: %+v, want %+v", i, got[i], batch[i])
			}
		}
	}
}

func TestConfigAnswerAckRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	want := ConfigAnswer{
		Key:         arcs.HistoryKey{App: "BT", Workload: "A", CapW: 65, Region: "rhs"},
		Cfg:         arcs.ConfigValues{Threads: 32, Schedule: ompt.ScheduleStatic},
		Perf:        0.75,
		Version:     9,
		Source:      "fallback",
		CapDistance: 5,
	}
	buf := enc.AppendConfigAnswer(nil, &want)
	kind, payload, _, err := Frame(buf)
	if err != nil || kind != KindConfigAnswer {
		t.Fatalf("Frame = kind %d err %v", kind, err)
	}
	var got ConfigAnswer
	if err := dec.DecodeConfigAnswer(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}

	ack := Ack{Saved: 12, StoreLen: 40}
	buf = enc.AppendAck(buf[:0], &ack)
	kind, payload, _, err = Frame(buf)
	if err != nil || kind != KindAck {
		t.Fatalf("ack Frame = kind %d err %v", kind, err)
	}
	var gotAck Ack
	if err := dec.DecodeAck(payload, &gotAck); err != nil {
		t.Fatal(err)
	}
	if gotAck != ack {
		t.Errorf("ack round trip = %+v, want %+v", gotAck, ack)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for _, entries := range [][]Entry{nil, sampleEntries()} {
		buf := enc.AppendSnapshot(nil, entries)
		kind, payload, _, err := Frame(buf)
		if err != nil || kind != KindSnapshot {
			t.Fatalf("Frame = kind %d err %v", kind, err)
		}
		got, err := dec.DecodeSnapshot(payload)
		if err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
		if len(got) != len(entries) {
			t.Fatalf("snapshot rows = %d, want %d", len(got), len(entries))
		}
		for i := range entries {
			if got[i] != entries[i] {
				t.Errorf("row %d: %+v, want %+v", i, got[i], entries[i])
			}
		}
	}
}

// TestUnknownFieldsSkipped proves the append-only evolution rule: a
// message carrying field numbers this reader has never heard of decodes
// cleanly, preserving every field it does know.
func TestUnknownFieldsSkipped(t *testing.T) {
	want := sampleEntries()[0]
	var enc Encoder
	framed := enc.AppendEntry(nil, &want)
	_, payload, _, err := Frame(framed)
	if err != nil {
		t.Fatal(err)
	}
	// A future writer appends three new fields: a string (tag 12), a
	// varint (tag 13) and a fixed8 (tag 14).
	future := append([]byte{}, payload...)
	future = appendStringField(future, 12, "future-field")
	future = appendUintField(future, 13, 99)
	future = appendFloatField(future, 14, 6.5)
	var got Entry
	var dec Decoder
	if err := dec.DecodeEntry(future, &got); err != nil {
		t.Fatalf("decode with unknown fields: %v", err)
	}
	if got != want {
		t.Errorf("unknown fields disturbed known ones: %+v, want %+v", got, want)
	}
}

// TestFrameCorruption flips, truncates and garbles a frame and checks
// each damage mode is reported as an error, never a panic or a silent
// wrong answer.
func TestFrameCorruption(t *testing.T) {
	e := sampleEntries()[0]
	var enc Encoder
	buf := enc.AppendEntry(nil, &e)

	t.Run("bit-flip", func(t *testing.T) {
		for i := range buf {
			bad := append([]byte{}, buf...)
			bad[i] ^= 0x40
			kind, payload, _, err := Frame(bad)
			if err != nil {
				continue // rejected: good
			}
			// The flip may have landed after a shorter valid frame; only a
			// full-length parse with intact checksum may succeed, and then
			// only if the flip was outside the frame (impossible here).
			var got Entry
			var dec Decoder
			if derr := dec.DecodeEntry(payload, &got); derr == nil && got == e && kind == KindEntry {
				t.Errorf("flip at %d silently produced the original entry", i)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(buf); n++ {
			if _, _, _, err := Frame(buf[:n]); err == nil {
				t.Errorf("truncated frame of %d/%d bytes accepted", n, len(buf))
			}
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		bad := append([]byte{}, buf...)
		bad[0] = '{'
		if _, _, _, err := Frame(bad); err == nil {
			t.Error("frame with wrong magic accepted")
		}
	})
}

// TestEncoderZeroAlloc proves the steady-state allocation contract the
// benchmarks gate: encode and decode of a warm Encoder/Decoder pair do
// not allocate.
func TestEncoderZeroAlloc(t *testing.T) {
	e := sampleEntries()[0]
	var enc Encoder
	var dec Decoder
	buf := enc.AppendEntry(nil, &e)
	_, payload, _, _ := Frame(buf)
	var got Entry
	if err := dec.DecodeEntry(payload, &got); err != nil {
		t.Fatal(err)
	}
	buf = buf[:0]
	encAllocs := testing.AllocsPerRun(100, func() {
		buf = enc.AppendEntry(buf[:0], &e)
	})
	if encAllocs != 0 {
		t.Errorf("encode allocates %.1f/op, want 0", encAllocs)
	}
	decAllocs := testing.AllocsPerRun(100, func() {
		_, payload, _, _ := Frame(buf)
		if err := dec.DecodeEntry(payload, &got); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs != 0 {
		t.Errorf("decode allocates %.1f/op, want 0", decAllocs)
	}
}

// TestCompactness sanity-checks the size win the codec exists for.
func TestCompactness(t *testing.T) {
	e := sampleEntries()[0]
	var enc Encoder
	bin := enc.AppendEntry(nil, &e)
	if len(bin) >= 100 {
		t.Errorf("binary entry is %d bytes; expected well under the ~150-byte JSON form", len(bin))
	}
	// The snapshot string table should dedup repeated names: 100 entries
	// sharing app/workload must encode far smaller than 100 frames.
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = e
		entries[i].Key.CapW = float64(40 + i)
	}
	snap := enc.AppendSnapshot(nil, entries)
	var framesLen int
	var frames []byte
	for i := range entries {
		frames = enc.AppendEntry(frames[:0], &entries[i])
		framesLen += len(frames)
	}
	if len(snap) >= framesLen {
		t.Errorf("columnar snapshot (%dB) not smaller than %d framed rows (%dB)", len(snap), len(entries), framesLen)
	}
}

// TestStreamedFrames decodes a concatenation of frames the way the
// client consumes a binary dump stream.
func TestStreamedFrames(t *testing.T) {
	var enc Encoder
	entries := sampleEntries()
	var stream []byte
	for i := range entries {
		stream = enc.AppendEntry(stream, &entries[i])
	}
	var dec Decoder
	var got []Entry
	rest := stream
	for len(rest) > 0 {
		kind, payload, n, err := Frame(rest)
		if err != nil || kind != KindEntry {
			t.Fatalf("stream frame: kind %d err %v", kind, err)
		}
		var e Entry
		if err := dec.DecodeEntry(payload, &e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
		rest = rest[n:]
	}
	if len(got) != len(entries) {
		t.Fatalf("streamed %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("stream entry %d: %+v, want %+v", i, got[i], entries[i])
		}
	}
	// A stream cut mid-frame reports ErrTruncated for the torn tail.
	rest = stream[:len(stream)-2]
	for {
		_, _, n, err := Frame(rest)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("torn tail reported %v, want ErrTruncated", err)
			}
			break
		}
		rest = rest[n:]
		if len(rest) == 0 {
			t.Error("torn final frame not detected")
			break
		}
	}
}
