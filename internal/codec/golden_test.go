package codec

import (
	"encoding/hex"
	"testing"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// goldenEntries are the fixed inputs the golden frames below encode:
// two apps, a shared region name, a zero cap and a DVFS point, so every
// column and every zero-elided field shows up at least once.
func goldenEntries() []Entry {
	return []Entry{
		{
			Key:     arcs.HistoryKey{App: "BT", Workload: "B", CapW: 70, Region: "x_solve"},
			Cfg:     arcs.ConfigValues{Threads: 8, Schedule: ompt.ScheduleDynamic, Chunk: 16, Bind: ompt.BindClose},
			Perf:    1.5,
			Version: 3,
		},
		{
			Key:     arcs.HistoryKey{App: "BT", Workload: "C", Region: "x_solve"},
			Cfg:     arcs.ConfigValues{Threads: 32, FreqGHz: 2.1},
			Perf:    0.25,
			Version: 1,
		},
		{
			Key:     arcs.HistoryKey{App: "LULESH", Workload: "30", CapW: 85.5, Region: "CalcQForElems"},
			Cfg:     arcs.ConfigValues{Threads: 24, Schedule: ompt.ScheduleGuided, Chunk: 4},
			Perf:    12.125,
			Version: 9,
		},
	}
}

// goldenFrames pins the exact bytes of every frame a serving hop or the
// store writes, for the inputs above. A change here is a wire or disk
// format change: it needs a codec.lock.json bump, not a new golden.
var goldenFrames = map[string]string{
	"entry":         "a701300a190a0242541201421900000000008051402207785f736f6c76651208080810021810280219000000000000f83f20031f1a150f",
	"report-batch":  "a7039101032e0a190a0242541201421900000000008051402207785f736f6c76651208080810021810280219000000000000f83f280a100a0242541201432207785f736f6c7665120b082021cdcccccccccc004019000000000000d03f370a240a064c554c45534812023330190000000000605540220d43616c6351466f72456c656d731206081810031804190000000000402840f75c9a6c",
	"config-answer": "a7044c0a240a064c554c45534812023330190000000000605540220d43616c6351466f72456c656d73120608181003180419000000000040284020092a0866616c6c6261636b310000000000001240da3fa94f",
	"ack":           "a705040803102997c3c6ee",
	"snapshot":      "a7088a010107024254014207785f736f6c76650143064c554c4553480233300d43616c6351466f72456c656d73030000040103050202060000000000805140000000000000000000000000006055400820180200031000040000000000000000cdcccccccccc00400000000000000000020000000000000000f83f000000000000d03f00000000004028400301090959ad98",
}

func TestGoldenFrames(t *testing.T) {
	entries := goldenEntries()
	reports := make([]Report, len(entries))
	for i, e := range entries {
		reports[i] = Report{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf}
	}
	var enc Encoder
	got := map[string][]byte{
		"entry":        enc.AppendEntry(nil, &entries[0]),
		"report-batch": enc.AppendReportBatch(nil, reports),
		"config-answer": enc.AppendConfigAnswer(nil, &ConfigAnswer{
			Key: entries[2].Key, Cfg: entries[2].Cfg, Perf: entries[2].Perf, Version: entries[2].Version,
			Source: "fallback", CapDistance: 4.5,
		}),
		"ack":      enc.AppendAck(nil, &Ack{Saved: 3, StoreLen: 41}),
		"snapshot": enc.AppendSnapshot(nil, entries),
	}
	for name, frame := range got {
		if h := hex.EncodeToString(frame); h != goldenFrames[name] {
			t.Errorf("%s frame:\n got %s\nwant %s", name, h, goldenFrames[name])
		}
	}
}
