package omp

import (
	"math"
	"testing"

	"arcs/internal/ompt"
	"arcs/internal/sim"
)

func testLoop() *sim.LoopModel {
	return &sim.LoopModel{
		Name:          "loop",
		Iters:         512,
		CompNSPerIter: 20000,
		Imbalance:     sim.Imbalance{Kind: sim.Ramp, Param: 1},
		Mem: sim.CacheSpec{
			AccessesPerIter:  200,
			BytesPerIter:     1024,
			TemporalWindowKB: 16,
			FootprintMB:      4,
			MLP:              4,
		},
	}
}

func newRT(t *testing.T) *Runtime {
	t.Helper()
	m, err := sim.NewMachine(sim.Crill())
	if err != nil {
		t.Fatal(err)
	}
	return NewRuntime(m)
}

func TestRegionInterning(t *testing.T) {
	rt := newRT(t)
	a := rt.Region("x_solve", testLoop())
	b := rt.Region("x_solve", nil)
	if a != b {
		t.Errorf("same name must intern to same region")
	}
	c := rt.Region("y_solve", testLoop())
	if c == a {
		t.Errorf("different names must differ")
	}
	if a.ID() == c.ID() {
		t.Errorf("region IDs must be unique")
	}
	if len(rt.Regions()) != 2 {
		t.Errorf("Regions() = %d entries, want 2", len(rt.Regions()))
	}
}

func TestRunDefaultConfig(t *testing.T) {
	rt := newRT(t)
	r := rt.Region("r", testLoop())
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Threads != 32 {
		t.Errorf("default must use all 32 hardware threads, got %d", m.Threads)
	}
	if m.TimeS <= 0 || m.EnergyJ <= 0 {
		t.Errorf("bad metrics: %+v", m)
	}
	if m.OverheadS != 0 {
		t.Errorf("no tool, no ICV calls: overhead must be 0, got %v", m.OverheadS)
	}
	if r.Invocations() != 1 {
		t.Errorf("invocation count = %d", r.Invocations())
	}
}

func TestControlPlaneValidation(t *testing.T) {
	rt := newRT(t)
	if err := rt.SetNumThreads(16); err != nil {
		t.Fatal(err)
	}
	if rt.NumThreads() != 16 {
		t.Errorf("NumThreads = %d", rt.NumThreads())
	}
	if err := rt.SetNumThreads(33); err == nil {
		t.Errorf("oversubscription must be rejected")
	}
	if err := rt.SetNumThreads(-1); err == nil {
		t.Errorf("negative threads must be rejected")
	}
	if err := rt.SetSchedule(ompt.ScheduleGuided, 8); err != nil {
		t.Fatal(err)
	}
	k, c := rt.Schedule()
	if k != ompt.ScheduleGuided || c != 8 {
		t.Errorf("Schedule = %v,%d", k, c)
	}
	if err := rt.SetSchedule(ompt.ScheduleKind(42), 1); err == nil {
		t.Errorf("bad schedule kind must be rejected")
	}
	if err := rt.SetSchedule(ompt.ScheduleStatic, -2); err == nil {
		t.Errorf("negative chunk must be rejected")
	}
	if rt.MaxThreads() != 32 {
		t.Errorf("MaxThreads = %d", rt.MaxThreads())
	}
}

func TestConfigChangeOverheadCharged(t *testing.T) {
	rt := newRT(t)
	r := rt.Region("r", testLoop())
	if err := rt.SetNumThreads(16); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetSchedule(ompt.ScheduleGuided, 4); err != nil {
		t.Fatal(err)
	}
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	want := rt.Machine().Arch().ConfigChangeS
	if math.Abs(m.OverheadS-want) > 1e-12 {
		t.Errorf("overhead = %v, want full config change %v", m.OverheadS, want)
	}
	// Overhead is charged once, not carried to the next run.
	m2, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if m2.OverheadS != 0 {
		t.Errorf("second run without ICV calls should have no overhead, got %v", m2.OverheadS)
	}
}

type countingTool struct {
	begins, ends int
	setThreads   int
}

func (c *countingTool) ParallelBegin(r ompt.RegionInfo, cp ompt.ControlPlane) {
	c.begins++
	if c.setThreads > 0 {
		_ = cp.SetNumThreads(c.setThreads)
	}
}
func (c *countingTool) ParallelEnd(r ompt.RegionInfo, m ompt.Metrics) { c.ends++ }

func TestToolCallbacksAndInstrumentation(t *testing.T) {
	rt := newRT(t)
	tool := &countingTool{}
	rt.RegisterTool(tool)
	r := rt.Region("r", testLoop())
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if tool.begins != 1 || tool.ends != 1 {
		t.Errorf("callbacks: begins=%d ends=%d", tool.begins, tool.ends)
	}
	if m.OverheadS < rt.Machine().Arch().InstrumentS {
		t.Errorf("instrumentation overhead missing: %v", m.OverheadS)
	}
}

func TestToolReconfiguresCurrentInvocation(t *testing.T) {
	rt := newRT(t)
	tool := &countingTool{setThreads: 8}
	rt.RegisterTool(tool)
	r := rt.Region("r", testLoop())
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Threads != 8 {
		t.Errorf("tool's SetNumThreads must apply to the same invocation, got %d threads", m.Threads)
	}
	// The tool's ICV call costs configuration-change overhead.
	if m.OverheadS <= rt.Machine().Arch().InstrumentS {
		t.Errorf("config change by tool must be charged, overhead = %v", m.OverheadS)
	}
}

type eventRecord struct {
	ev     ompt.Event
	thread int
	durS   float64
}

// eventRecorder keeps every per-thread event in arrival order.
type eventRecorder struct {
	countingTool
	got []eventRecord
}

func (e *eventRecorder) Event(r ompt.RegionInfo, ev ompt.Event, thread int, durS float64) {
	e.got = append(e.got, eventRecord{ev, thread, durS})
}

// TestEventStream: beside a tool that does not listen, a listener gets
// exactly 3×T events per invocation, thread by thread, each thread's
// implicit task, loop and barrier in that order, carrying the same
// per-thread times the metrics average.
func TestEventStream(t *testing.T) {
	rt := newRT(t)
	rt.RegisterTool(&countingTool{})
	rec := &eventRecorder{}
	rt.RegisterTool(rec)
	r := rt.Region("r", testLoop())
	for _, threads := range []int{4, 16} {
		if err := rt.SetNumThreads(threads); err != nil {
			t.Fatal(err)
		}
		rec.got = nil
		m, err := rt.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.got) != 3*threads {
			t.Fatalf("%d threads: %d events, want %d", threads, len(rec.got), 3*threads)
		}
		busy, wait := 0.0, 0.0
		for i := 0; i < threads; i++ {
			for j, ev := range []ompt.Event{ompt.EventImplicitTask, ompt.EventLoop, ompt.EventBarrier} {
				if got := rec.got[3*i+j]; got.ev != ev || got.thread != i {
					t.Fatalf("%d threads: event %d is %v on thread %d, want %v on thread %d",
						threads, 3*i+j, got.ev, got.thread, ev, i)
				}
			}
			busy += rec.got[3*i+1].durS
			wait += rec.got[3*i+2].durS
		}
		if busy/float64(threads) != m.MeanBusyS || wait/float64(threads) != m.MeanWaitS {
			t.Fatalf("%d threads: event means %v/%v, metrics %v/%v",
				threads, busy/float64(threads), wait/float64(threads), m.MeanBusyS, m.MeanWaitS)
		}
	}
}

func TestMetricsEnergyMatchesMachine(t *testing.T) {
	rt := newRT(t)
	r := rt.Region("r", testLoop())
	e0 := rt.Machine().EnergyJ()
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs((rt.Machine().EnergyJ() - e0) - m.EnergyJ); diff > 1e-9 {
		t.Errorf("metrics energy %v inconsistent with machine accounting (diff %v)", m.EnergyJ, diff)
	}
}

func TestRunErrors(t *testing.T) {
	rt := newRT(t)
	if _, err := rt.Run(nil); err == nil {
		t.Errorf("nil region must error")
	}
	if _, err := rt.Run(rt.Region("empty", nil)); err == nil {
		t.Errorf("region without model must error")
	}
}

func TestScheduleKindsMapToSimulator(t *testing.T) {
	rt := newRT(t)
	r := rt.Region("r", testLoop())
	for _, k := range []ompt.ScheduleKind{ompt.ScheduleDefault, ompt.ScheduleStatic, ompt.ScheduleDynamic, ompt.ScheduleGuided} {
		if err := rt.SetSchedule(k, 2); err != nil {
			t.Fatal(err)
		}
		m, err := rt.Run(r)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.Schedule != k {
			t.Errorf("metrics schedule = %v, want %v", m.Schedule, k)
		}
	}
}

func TestWorkloadSwap(t *testing.T) {
	rt := newRT(t)
	small := testLoop()
	big := testLoop()
	big.Iters = 4096
	r := rt.Region("r", small)
	m1, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	r.SetModel(big)
	m2, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if m2.TimeS <= m1.TimeS {
		t.Errorf("larger workload must take longer: %v vs %v", m2.TimeS, m1.TimeS)
	}
}

func TestDefaultICVAndReset(t *testing.T) {
	rt := newRT(t)
	def := rt.DefaultICV()
	if def.NumThreads != 32 || def.Schedule != ompt.ScheduleStatic || def.Chunk != 0 {
		t.Errorf("DefaultICV = %+v", def)
	}
	_ = rt.SetNumThreads(4)
	rt.ResetICV()
	if rt.NumThreads() != 0 {
		t.Errorf("ResetICV must restore defaults")
	}
	r := rt.Region("r", testLoop())
	m, err := rt.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if m.OverheadS != 0 {
		t.Errorf("ResetICV must clear pending overhead, got %v", m.OverheadS)
	}
}
