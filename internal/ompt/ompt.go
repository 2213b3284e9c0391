// Package ompt defines the OpenMP Tools (OMPT) style interface between the
// OpenMP runtime and performance tools, following the draft technical
// report the paper builds on (§III-A): tools register callbacks, receive
// parallel-region begin/end events with runtime-populated data structures
// (region identifiers, timing, barrier information), and may adjust the
// runtime through the control plane (omp_set_num_threads,
// omp_set_schedule). APEX — and through it ARCS — attaches here.
package ompt

import "fmt"

// RegionID uniquely identifies an OpenMP parallel region (the codeptr of
// the outlined function on real systems).
type RegionID uint64

// ScheduleKind mirrors omp_sched_t.
type ScheduleKind int

const (
	// ScheduleDefault requests the runtime's compiled-in default
	// (static with iterations/threads chunks in this runtime).
	ScheduleDefault ScheduleKind = iota
	// ScheduleStatic is schedule(static[, chunk]).
	ScheduleStatic
	// ScheduleDynamic is schedule(dynamic[, chunk]).
	ScheduleDynamic
	// ScheduleGuided is schedule(guided[, chunk]).
	ScheduleGuided
)

// String implements fmt.Stringer.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleDefault:
		return "default"
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ParseScheduleKind converts the textual form back into a kind.
func ParseScheduleKind(s string) (ScheduleKind, error) {
	switch s {
	case "default":
		return ScheduleDefault, nil
	case "static":
		return ScheduleStatic, nil
	case "dynamic":
		return ScheduleDynamic, nil
	case "guided":
		return ScheduleGuided, nil
	}
	return 0, fmt.Errorf("ompt: unknown schedule kind %q", s)
}

// RegionInfo is the runtime-populated data structure handed to tools on
// region events.
type RegionInfo struct {
	ID         RegionID
	Name       string // source-level label, e.g. "x_solve"
	Invocation int    // 1-based count of entries into this region
}

// Event enumerates the OMPT event kinds surfaced to event listeners. The
// three the paper's Fig. 9 profiles are ImplicitTask, Loop and Barrier.
type Event int

const (
	// EventParallelBegin fires when a parallel region forks.
	EventParallelBegin Event = iota
	// EventParallelEnd fires when a parallel region joins.
	EventParallelEnd
	// EventImplicitTask is one thread's whole participation in the region.
	EventImplicitTask
	// EventLoop is one thread's time inside the worksharing loop body.
	EventLoop
	// EventBarrier is one thread's wait at the region's implicit barrier.
	EventBarrier
)

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e {
	case EventParallelBegin:
		return "OpenMP_PARALLEL_BEGIN"
	case EventParallelEnd:
		return "OpenMP_PARALLEL_END"
	case EventImplicitTask:
		return "OpenMP_IMPLICIT_TASK"
	case EventLoop:
		return "OpenMP_LOOP"
	case EventBarrier:
		return "OpenMP_BARRIER"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Metrics is the measurement record delivered with EventParallelEnd. On a
// real system a tool assembles this from hardware counters; here the
// runtime populates it from the machine model.
type Metrics struct {
	TimeS     float64 // region wall time including runtime overheads
	EnergyJ   float64 // package energy for the region (0 if no counters)
	AvgPowerW float64

	// DRAMEnergyJ is the region's DRAM energy — the paper's future-work
	// memory-power accounting (§VII); zero where unavailable.
	DRAMEnergyJ float64

	Threads  int
	Schedule ScheduleKind
	Chunk    int // 0 = default

	FreqGHz float64

	L1Miss float64 // miss rates as measured for this execution
	L2Miss float64
	L3Miss float64

	LoopS     float64 // critical-path loop time
	MeanBusyS float64 // mean per-thread busy time (OpenMP_LOOP)
	BarrierS  float64 // total barrier wait across the team
	MeanWaitS float64 // mean per-thread barrier wait (OpenMP_BARRIER)
	SerialS   float64

	OverheadS float64 // config-change + instrumentation charged this call
}

// Tool is the callback interface tools register with the runtime.
type Tool interface {
	// ParallelBegin fires before the region forks; this is where a tuning
	// tool mutates the control plane for the *current* invocation.
	ParallelBegin(r RegionInfo, cp ControlPlane)
	// ParallelEnd fires after the join with the measurements.
	ParallelEnd(r RegionInfo, m Metrics)
}

// EventListener is an optional extension for tools that want the synthetic
// per-thread event stream (TAU-style tracing).
type EventListener interface {
	Event(r RegionInfo, e Event, thread int, durS float64)
}

// BindKind mirrors omp_proc_bind_t (the subset this runtime models).
type BindKind int

const (
	// BindDefault leaves the runtime's compiled-in policy (spread here).
	BindDefault BindKind = iota
	// BindSpread scatters threads across cores first.
	BindSpread
	// BindClose packs SMT siblings before moving to the next core.
	BindClose
)

// String implements fmt.Stringer.
func (b BindKind) String() string {
	switch b {
	case BindDefault:
		return "default"
	case BindSpread:
		return "spread"
	case BindClose:
		return "close"
	default:
		return fmt.Sprintf("BindKind(%d)", int(b))
	}
}

// BindController is an optional control-plane extension for runtimes that
// support thread-placement control (OMP_PROC_BIND).
type BindController interface {
	SetProcBind(BindKind) error
	ProcBind() BindKind
}

// FreqController is an optional control-plane extension for runtimes that
// can request a DVFS operating point — the paper's §VII future-work DVFS
// policy. SetFreqGHz(0) clears the request.
type FreqController interface {
	SetFreqGHz(ghz float64) error
	FreqLadderGHz() []float64
}

// ControlPlane is the runtime-adjustment surface: the OpenMP 4.x routines
// ARCS uses (§III-C: omp_set_num_threads and omp_set_schedule).
type ControlPlane interface {
	SetNumThreads(n int) error
	SetSchedule(kind ScheduleKind, chunk int) error
	NumThreads() int
	Schedule() (ScheduleKind, int)
	// MaxThreads is the hardware thread limit (omp_get_max_threads against
	// an unrestricted environment).
	MaxThreads() int
}

// Mux fans events out to multiple registered tools in registration order.
// The zero value is ready to use.
type Mux struct {
	tools     []Tool
	listeners []EventListener // the tools that opt in to per-thread events
}

// Register appends a tool. Nil tools are ignored.
func (m *Mux) Register(t Tool) {
	if t == nil {
		return
	}
	m.tools = append(m.tools, t)
	if l, ok := t.(EventListener); ok {
		m.listeners = append(m.listeners, l)
	}
}

// Len returns the number of registered tools.
func (m *Mux) Len() int { return len(m.tools) }

// Listening reports whether a registered tool is an EventListener, so a
// runtime can skip building the per-thread event stream when none is.
func (m *Mux) Listening() bool { return len(m.listeners) > 0 }

// ParallelBegin implements Tool.
func (m *Mux) ParallelBegin(r RegionInfo, cp ControlPlane) {
	for _, t := range m.tools {
		t.ParallelBegin(r, cp)
	}
}

// ParallelEnd implements Tool.
func (m *Mux) ParallelEnd(r RegionInfo, mt Metrics) {
	for _, t := range m.tools {
		t.ParallelEnd(r, mt)
	}
}

// Event implements EventListener, forwarding to tools that opt in.
func (m *Mux) Event(r RegionInfo, e Event, thread int, durS float64) {
	for _, l := range m.listeners {
		l.Event(r, e, thread, durS)
	}
}

var (
	_ Tool          = (*Mux)(nil)
	_ EventListener = (*Mux)(nil)
)
