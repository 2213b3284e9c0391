package ompt

import (
	"testing"
)

type recordingTool struct {
	begins []RegionInfo
	ends   []RegionInfo
	events []Event
}

func (r *recordingTool) ParallelBegin(ri RegionInfo, cp ControlPlane) {
	r.begins = append(r.begins, ri)
}
func (r *recordingTool) ParallelEnd(ri RegionInfo, m Metrics) { r.ends = append(r.ends, ri) }

type recordingListener struct {
	recordingTool
}

func (r *recordingListener) Event(ri RegionInfo, e Event, thread int, durS float64) {
	r.events = append(r.events, e)
}

type fakeCP struct {
	threads int
	kind    ScheduleKind
	chunk   int
}

func (f *fakeCP) SetNumThreads(n int) error                   { f.threads = n; return nil }
func (f *fakeCP) SetSchedule(k ScheduleKind, chunk int) error { f.kind, f.chunk = k, chunk; return nil }
func (f *fakeCP) NumThreads() int                             { return f.threads }
func (f *fakeCP) Schedule() (ScheduleKind, int)               { return f.kind, f.chunk }
func (f *fakeCP) MaxThreads() int                             { return 32 }

func TestScheduleKindStrings(t *testing.T) {
	cases := map[ScheduleKind]string{
		ScheduleDefault: "default",
		ScheduleStatic:  "static",
		ScheduleDynamic: "dynamic",
		ScheduleGuided:  "guided",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
		back, err := ParseScheduleKind(want)
		if err != nil || back != k {
			t.Errorf("ParseScheduleKind(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseScheduleKind("bogus"); err == nil {
		t.Errorf("ParseScheduleKind must reject unknown kinds")
	}
}

func TestEventStrings(t *testing.T) {
	if EventImplicitTask.String() != "OpenMP_IMPLICIT_TASK" {
		t.Errorf("unexpected: %s", EventImplicitTask)
	}
	if EventBarrier.String() != "OpenMP_BARRIER" {
		t.Errorf("unexpected: %s", EventBarrier)
	}
	if EventLoop.String() != "OpenMP_LOOP" {
		t.Errorf("unexpected: %s", EventLoop)
	}
}

func TestMuxFanOut(t *testing.T) {
	var m Mux
	a, b := &recordingTool{}, &recordingTool{}
	m.Register(a)
	m.Register(b)
	m.Register(nil) // ignored
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	cp := &fakeCP{}
	ri := RegionInfo{ID: 7, Name: "x_solve", Invocation: 1}
	m.ParallelBegin(ri, cp)
	m.ParallelEnd(ri, Metrics{TimeS: 1})
	for _, tool := range []*recordingTool{a, b} {
		if len(tool.begins) != 1 || tool.begins[0].Name != "x_solve" {
			t.Errorf("begin not forwarded: %+v", tool.begins)
		}
		if len(tool.ends) != 1 {
			t.Errorf("end not forwarded")
		}
	}
}

func TestMuxEventOnlyToListeners(t *testing.T) {
	var m Mux
	plain := &recordingTool{}
	m.Register(plain)
	if m.Listening() {
		t.Fatal("a mux of plain tools reports a listener")
	}
	a, b := &recordingListener{}, &recordingListener{}
	m.Register(a)
	m.Register(&recordingTool{})
	m.Register(b)
	if !m.Listening() {
		t.Fatal("a mux with listeners reports none")
	}
	m.Event(RegionInfo{ID: 1}, EventLoop, 3, 0.5)
	m.Event(RegionInfo{ID: 1}, EventBarrier, 3, 0.5)
	for _, l := range []*recordingListener{a, b} {
		if len(l.events) != 2 || l.events[0] != EventLoop || l.events[1] != EventBarrier {
			t.Errorf("listener got %v, want [loop barrier]", l.events)
		}
	}
	if len(plain.events) != 0 {
		t.Errorf("plain tool must not receive events")
	}
}
