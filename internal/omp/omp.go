// Package omp implements an OpenMP-style runtime on top of the simulated
// machine: internal control variables (ICVs), parallel regions with
// worksharing loops under static/dynamic/guided scheduling, the implicit
// barrier, and the OMPT tool hooks ARCS attaches to. It mirrors the
// reference Intel runtime with OMPT support the paper uses (§III-A, §IV-B):
//
//   - tools see ParallelBegin/ParallelEnd events bracketing each region;
//   - omp_set_num_threads / omp_set_schedule mutate ICVs between regions
//     and cost real time (the paper's configuration-changing overhead);
//   - registered tools cost instrumentation time per region call;
//   - the default configuration is the one the paper compares against:
//     maximum hardware threads, static schedule, iterations/threads chunks.
package omp

import (
	"fmt"

	"arcs/internal/ompt"
	"arcs/internal/sim"
)

// ICV holds the OpenMP internal control variables ARCS tunes.
type ICV struct {
	// NumThreads is the team size; 0 selects the default (all hardware
	// threads, as in the paper's baseline).
	NumThreads int
	// Schedule and Chunk form the run-sched-var. ScheduleDefault with
	// Chunk 0 is the compiled-in default (static, iterations/threads).
	Schedule ompt.ScheduleKind
	Chunk    int
	// Bind is the proc-bind-var (OMP_PROC_BIND); default is spread.
	Bind ompt.BindKind
}

// Region is one OpenMP parallel region: a stable identity (OMPT RegionID)
// plus the workload model executed on each invocation. The workload may be
// swapped between invocations (workload size changes across time steps).
type Region struct {
	info  ompt.RegionInfo
	model *sim.LoopModel
}

// Name returns the region's source-level label.
func (r *Region) Name() string { return r.info.Name }

// ID returns the OMPT region identifier.
func (r *Region) ID() ompt.RegionID { return r.info.ID }

// Invocations returns how many times the region has executed.
func (r *Region) Invocations() int { return r.info.Invocation }

// Model returns the current workload model.
func (r *Region) Model() *sim.LoopModel { return r.model }

// SetModel replaces the workload model for subsequent invocations.
func (r *Region) SetModel(m *sim.LoopModel) { r.model = m }

// Runtime is the OpenMP runtime instance bound to one machine.
type Runtime struct {
	mach    *sim.Machine
	tools   ompt.Mux
	icv     ICV
	nextID  ompt.RegionID
	regions map[string]*Region

	// pendingOverheadS accumulates the cost of control-plane calls made
	// since the last region execution; it is charged (as single-core
	// runtime work) when the next region starts, which is when the real
	// runtime performs the reconfiguration.
	pendingOverheadS float64
}

// NewRuntime creates a runtime on the given machine.
func NewRuntime(m *sim.Machine) *Runtime {
	return &Runtime{mach: m, regions: make(map[string]*Region)}
}

// Machine returns the underlying machine (for RAPL access etc.).
func (rt *Runtime) Machine() *sim.Machine { return rt.mach }

// RegisterTool attaches an OMPT tool. Registering at least one tool enables
// the per-region instrumentation overhead, as with a real OMPT tool.
func (rt *Runtime) RegisterTool(t ompt.Tool) { rt.tools.Register(t) }

// Region interns a parallel region by name, creating it on first use. The
// model is attached on creation and updated on subsequent calls if non-nil.
func (rt *Runtime) Region(name string, model *sim.LoopModel) *Region {
	if r, ok := rt.regions[name]; ok {
		if model != nil {
			r.model = model
		}
		return r
	}
	rt.nextID++
	r := &Region{info: ompt.RegionInfo{ID: rt.nextID, Name: name}, model: model}
	rt.regions[name] = r
	return r
}

// Regions returns all interned regions (unspecified order).
func (rt *Runtime) Regions() []*Region {
	out := make([]*Region, 0, len(rt.regions))
	for _, r := range rt.regions {
		out = append(out, r)
	}
	return out
}

// --- Control plane (ompt.ControlPlane) ---

// configChangeCallS is the cost of one ICV-setting runtime call; the paper
// measures the pair (threads + schedule) at ConfigChangeS per region call.
func (rt *Runtime) configChangeCallS() float64 { return rt.mach.Arch().ConfigChangeS / 2 }

// SetNumThreads implements omp_set_num_threads: validates the team size
// and charges half of the configuration-change overhead.
func (rt *Runtime) SetNumThreads(n int) error {
	if n < 0 || n > rt.MaxThreads() {
		return fmt.Errorf("omp: num_threads %d out of range [0, %d]", n, rt.MaxThreads())
	}
	rt.icv.NumThreads = n
	rt.pendingOverheadS += rt.configChangeCallS()
	return nil
}

// SetSchedule implements omp_set_schedule.
func (rt *Runtime) SetSchedule(kind ompt.ScheduleKind, chunk int) error {
	switch kind {
	case ompt.ScheduleDefault, ompt.ScheduleStatic, ompt.ScheduleDynamic, ompt.ScheduleGuided:
	default:
		return fmt.Errorf("omp: unknown schedule kind %v", kind)
	}
	if chunk < 0 {
		return fmt.Errorf("omp: negative chunk %d", chunk)
	}
	rt.icv.Schedule = kind
	rt.icv.Chunk = chunk
	rt.pendingOverheadS += rt.configChangeCallS()
	return nil
}

// NumThreads returns the current num-threads ICV (0 = default).
func (rt *Runtime) NumThreads() int { return rt.icv.NumThreads }

// Schedule returns the current run-sched ICV.
func (rt *Runtime) Schedule() (ompt.ScheduleKind, int) { return rt.icv.Schedule, rt.icv.Chunk }

// MaxThreads returns the hardware thread limit.
func (rt *Runtime) MaxThreads() int { return rt.mach.Arch().HWThreads() }

// SetFreqGHz implements the optional DVFS control plane (ompt
// FreqController, the paper's §VII future work): it requests a frequency
// ceiling below the governor's choice. Like the other ICV calls it costs
// half a configuration change.
func (rt *Runtime) SetFreqGHz(ghz float64) error {
	if err := rt.mach.SetUserFreqGHz(ghz); err != nil {
		return err
	}
	rt.pendingOverheadS += rt.configChangeCallS()
	return nil
}

// FreqLadderGHz returns the machine's DVFS operating points.
func (rt *Runtime) FreqLadderGHz() []float64 { return rt.mach.Arch().FreqLadder() }

// SetProcBind implements the optional placement control plane
// (OMP_PROC_BIND). Like other ICV calls it costs half a config change.
func (rt *Runtime) SetProcBind(b ompt.BindKind) error {
	switch b {
	case ompt.BindDefault, ompt.BindSpread, ompt.BindClose:
	default:
		return fmt.Errorf("omp: unknown proc-bind kind %v", b)
	}
	rt.icv.Bind = b
	rt.pendingOverheadS += rt.configChangeCallS()
	return nil
}

// ProcBind returns the current proc-bind ICV.
func (rt *Runtime) ProcBind() ompt.BindKind { return rt.icv.Bind }

var (
	_ ompt.ControlPlane   = (*Runtime)(nil)
	_ ompt.FreqController = (*Runtime)(nil)
	_ ompt.BindController = (*Runtime)(nil)
)

// --- Execution ---

// Resolve maps ICVs onto a simulator configuration for arch under the
// runtime's defaulting rules: NumThreads 0 is every hardware thread,
// the default schedule is static, and the default binding is spread.
// It is the one ICV resolution rule; tuners and sweeps that probe the
// simulator directly resolve their configurations through it too.
func Resolve(arch *sim.Arch, icv ICV) sim.Config {
	t := icv.NumThreads
	if t == 0 {
		t = arch.HWThreads()
	}
	var sched sim.Schedule
	switch icv.Schedule {
	case ompt.ScheduleDynamic:
		sched = sim.SchedDynamic
	case ompt.ScheduleGuided:
		sched = sim.SchedGuided
	default: // static and default
		sched = sim.SchedStatic
	}
	bind := sim.BindSpread
	if icv.Bind == ompt.BindClose {
		bind = sim.BindClose
	}
	return sim.Config{Threads: t, Sched: sched, Chunk: icv.Chunk, Bind: bind}
}

// Run executes the region once under the current ICVs, firing OMPT events
// and charging pending configuration-change plus instrumentation overheads.
func (rt *Runtime) Run(r *Region) (ompt.Metrics, error) {
	if r == nil || r.model == nil {
		return ompt.Metrics{}, fmt.Errorf("omp: region without workload model")
	}
	r.info.Invocation++

	// Tools may reconfigure the runtime for this invocation.
	rt.tools.ParallelBegin(r.info, rt)

	overhead := rt.pendingOverheadS
	rt.pendingOverheadS = 0
	if rt.tools.Len() > 0 {
		overhead += rt.mach.Arch().InstrumentS
	}

	t0, e0, d0 := rt.mach.Now(), rt.mach.EnergyJ(), rt.mach.DRAMEnergyJ()
	rt.mach.AccountOverhead(overhead)
	cfg := Resolve(rt.mach.Arch(), rt.icv)
	res, err := rt.mach.ExecuteLoop(r.model, cfg)
	if err != nil {
		return ompt.Metrics{}, fmt.Errorf("omp: region %q: %w", r.info.Name, err)
	}
	t1, e1, d1 := rt.mach.Now(), rt.mach.EnergyJ(), rt.mach.DRAMEnergyJ()

	meanBusy, meanWait := 0.0, 0.0
	for i := range res.PerThreadBusyS {
		meanBusy += res.PerThreadBusyS[i]
		meanWait += res.PerThreadWaitS[i]
	}
	meanBusy /= float64(cfg.Threads)
	meanWait /= float64(cfg.Threads)

	m := ompt.Metrics{
		TimeS:       t1 - t0,
		EnergyJ:     e1 - e0,
		AvgPowerW:   (e1 - e0) / (t1 - t0),
		DRAMEnergyJ: d1 - d0,
		Threads:     cfg.Threads,
		Schedule:    rt.icv.Schedule,
		Chunk:       rt.icv.Chunk,
		FreqGHz:     res.FreqGHz,
		L1Miss:      res.Miss.L1,
		L2Miss:      res.Miss.L2,
		L3Miss:      res.Miss.L3,
		LoopS:       res.LoopS,
		MeanBusyS:   meanBusy,
		BarrierS:    res.BarrierS,
		MeanWaitS:   meanWait,
		SerialS:     res.SerialS,
		OverheadS:   overhead,
	}

	// Synthetic per-thread event stream for tracing tools, if any listens.
	if rt.tools.Listening() {
		for i := 0; i < cfg.Threads; i++ {
			rt.tools.Event(r.info, ompt.EventImplicitTask, i, res.TimeS)
			rt.tools.Event(r.info, ompt.EventLoop, i, res.PerThreadBusyS[i])
			rt.tools.Event(r.info, ompt.EventBarrier, i, res.PerThreadWaitS[i])
		}
	}

	rt.tools.ParallelEnd(r.info, m)
	return m, nil
}

// DefaultICV returns the paper's baseline configuration for this machine:
// maximum hardware threads, static schedule, default chunking.
func (rt *Runtime) DefaultICV() ICV {
	return ICV{NumThreads: rt.MaxThreads(), Schedule: ompt.ScheduleStatic, Chunk: 0}
}

// ResetICV restores the default configuration without charging overhead
// (used between experiment arms, not during measured runs).
func (rt *Runtime) ResetICV() {
	rt.icv = ICV{}
	rt.pendingOverheadS = 0
}
