// Package sim implements the deterministic analytic multicore machine model
// that substitutes for the paper's physical testbeds (Intel Sandy Bridge
// "Crill" and IBM POWER8 "Minotaur").
//
// The model reproduces the causal chain ARCS exploits:
//
//	power cap -> per-active-core dynamic budget -> DVFS frequency ->
//	configuration-dependent slowdown (compute scales with f, DRAM does not)
//
// together with the OpenMP-relevant behaviours the paper analyses: load
// imbalance vs. schedule/chunk, per-chunk dispatch overhead, SMT yield and
// private-cache sharing, shared-L3 competition, memory-bandwidth saturation,
// fork stagger, and spin-vs-sleep energy at barriers.
//
// Nothing in this package knows about OpenMP naming; the internal/omp
// runtime maps OpenMP ICVs onto sim.Config values.
package sim

import (
	"errors"
	"fmt"
)

// Arch describes a machine architecture: topology, clocks, cache geometry,
// power constants and SMT behaviour. Arch values are immutable once built;
// Machine holds the mutable state (cap, clock, energy). Each Machine
// remembers its last probe of every region and reuses it for an identical
// probe, so an Arch must not be mutated after a machine built on it has
// probed.
type Arch struct {
	Name string

	// Topology.
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int // SMT contexts per core

	// Clocks (GHz).
	BaseGHz float64 // nominal frequency; TDP sustains all cores at base
	MinGHz  float64 // lowest DVFS point; below this the core duty-cycles

	// Power (Watts, whole machine treated as one RAPL package domain).
	TDPW     float64 // thermal design power; cap==0 means "run at TDP"
	StaticW  float64 // leakage + uncore, paid whenever the machine is on
	DynCoreW float64 // dynamic power of one fully busy core at BaseGHz

	// Cache geometry. L1/L2 are per core (shared by SMT siblings), L3 is
	// machine-wide in this single-domain model.
	L1KB      int
	L2KB      int
	L3MB      float64
	LineBytes int

	// Access latencies in nanoseconds at BaseGHz. L1/L2 are core-clocked
	// (scale with f), L3 is uncore (mildly cap-sensitive), DRAM is fixed.
	L1LatNS  float64
	L2LatNS  float64
	L3LatNS  float64
	MemLatNS float64

	// MemBWGBs is the aggregate DRAM bandwidth; memory-bound loops saturate
	// it as threads are added, which is why more threads stop helping.
	MemBWGBs float64

	// PowerLawExp is the exponent of the dynamic power law P ∝ (f/base)^e.
	// Zero selects the physical default of 3 (P ∝ f·V², V ∝ f); the DVFS
	// ablation overrides it.
	PowerLawExp float64

	// DRAM power model (outside the RAPL package domain; the paper could
	// not cap or measure it — §VII lists memory power as future work).
	DRAMStaticW       float64 // background/refresh power
	DRAMEnergyPerByte float64 // joules per byte transferred

	// SMTYield[k-1] is the fraction of full-core compute throughput each of
	// k co-scheduled threads achieves. SMTYield[0] must be 1.
	SMTYield []float64

	// Runtime overheads.
	DispatchUS     float64 // dynamic/guided per-chunk grab (uncontended)
	DispatchScale  float64 // contention growth per extra thread
	ForkBaseUS     float64 // team wake-up latency before thread 0 starts
	ForkStaggerUS  float64 // additional start delay per subsequent thread
	ConfigChangeS  float64 // omp_set_num_threads+omp_set_schedule round trip
	InstrumentS    float64 // APEX timer+policy callback cost per region call
	SpinWindowS    float64 // barrier spin time before dropping to sleep
	SpinPowerFrac  float64 // fraction of core dynamic power burned spinning
	SleepPowerFrac float64 // fraction burned after dropping to sleep
	UncoreCapSlope float64 // L3 latency growth as f drops below base

	// Capabilities (paper §IV-A: Minotaur had neither capping privilege nor
	// energy counter access).
	CanCap       bool
	HasEnergyCtr bool
}

// Cores returns the total number of physical cores.
func (a *Arch) Cores() int { return a.Sockets * a.CoresPerSocket }

// HWThreads returns the total number of hardware thread contexts.
func (a *Arch) HWThreads() int { return a.Cores() * a.ThreadsPerCore }

// L3Bytes returns the shared last-level cache capacity in bytes.
func (a *Arch) L3Bytes() float64 { return a.L3MB * 1024 * 1024 }

// FreqLadder returns the discrete DVFS operating points from MinGHz to
// BaseGHz (ascending, ~6 steps) used by the future-work DVFS policy.
func (a *Arch) FreqLadder() []float64 {
	const steps = 6
	out := make([]float64, 0, steps)
	span := a.BaseGHz - a.MinGHz
	for i := 0; i < steps; i++ {
		out = append(out, a.MinGHz+span*float64(i)/float64(steps-1))
	}
	return out
}

// Validate checks internal consistency. Machine construction calls it, so a
// hand-built Arch that is physically meaningless is rejected early.
func (a *Arch) Validate() error {
	switch {
	case a.Sockets <= 0 || a.CoresPerSocket <= 0 || a.ThreadsPerCore <= 0:
		return fmt.Errorf("sim: %s: non-positive topology", a.Name)
	case a.BaseGHz <= 0 || a.MinGHz <= 0 || a.MinGHz > a.BaseGHz:
		return fmt.Errorf("sim: %s: bad frequency range [%g, %g]", a.Name, a.MinGHz, a.BaseGHz)
	case a.TDPW <= 0 || a.StaticW < 0 || a.DynCoreW <= 0:
		return fmt.Errorf("sim: %s: bad power constants", a.Name)
	case a.StaticW+a.DynCoreW*float64(a.Cores()) > a.TDPW*1.001:
		return fmt.Errorf("sim: %s: TDP %gW cannot sustain all cores at base frequency (needs %gW)",
			a.Name, a.TDPW, a.StaticW+a.DynCoreW*float64(a.Cores()))
	case a.L1KB <= 0 || a.L2KB <= 0 || a.L3MB <= 0 || a.LineBytes <= 0:
		return fmt.Errorf("sim: %s: bad cache geometry", a.Name)
	case len(a.SMTYield) != a.ThreadsPerCore:
		return fmt.Errorf("sim: %s: SMTYield has %d entries, want %d", a.Name, len(a.SMTYield), a.ThreadsPerCore)
	//arcslint:ignore floatcmp validating a hand-written table entry against an exact constant
	case a.SMTYield[0] != 1:
		return fmt.Errorf("sim: %s: SMTYield[0] must be 1", a.Name)
	case a.MemBWGBs <= 0:
		return fmt.Errorf("sim: %s: bad memory bandwidth", a.Name)
	}
	for i := 1; i < len(a.SMTYield); i++ {
		if a.SMTYield[i] <= 0 || a.SMTYield[i] > a.SMTYield[i-1] {
			return fmt.Errorf("sim: %s: SMTYield must be positive and non-increasing", a.Name)
		}
	}
	return nil
}

// BindPolicy selects how software threads map onto hardware contexts,
// mirroring OMP_PROC_BIND: spread scatters across cores first (the paper's
// configuration), close packs SMT siblings before moving to the next core.
type BindPolicy int

const (
	// BindSpread fills every core once before using SMT siblings.
	BindSpread BindPolicy = iota
	// BindClose fills each core's SMT contexts before the next core —
	// fewer active cores (higher frequency under a cap) but shared private
	// caches and lower per-thread yield.
	BindClose
)

// String implements fmt.Stringer.
func (b BindPolicy) String() string {
	switch b {
	case BindSpread:
		return "spread"
	case BindClose:
		return "close"
	default:
		return fmt.Sprintf("BindPolicy(%d)", int(b))
	}
}

// Placement describes how T software threads map onto cores: scatter-first
// (fill every core once, then add SMT siblings), matching OMP_PLACES=cores
// with spread binding, which is what the NPB runs in the paper used.
type Placement struct {
	Threads     int
	ActiveCores int
	// Occupancy[i] is the number of threads sharing the core that runs
	// software thread i. Yield and private-cache share derive from it.
	Occupancy []int
}

// ErrTooManyThreads is returned when a configuration requests more software
// threads than hardware contexts; the search spaces in the paper never
// oversubscribe, so the simulator treats it as a configuration error.
var ErrTooManyThreads = errors.New("sim: thread count exceeds hardware contexts")

// Place computes the scatter-first (spread) placement of t threads.
func (a *Arch) Place(t int) (Placement, error) { return a.PlaceWith(t, BindSpread) }

// PlaceWith computes the placement of t threads under a binding policy.
func (a *Arch) PlaceWith(t int, bind BindPolicy) (Placement, error) {
	if t <= 0 {
		return Placement{}, fmt.Errorf("sim: non-positive thread count %d", t)
	}
	if t > a.HWThreads() {
		return Placement{}, fmt.Errorf("%w: %d > %d on %s", ErrTooManyThreads, t, a.HWThreads(), a.Name)
	}
	cores := a.Cores()
	core := make([]int, t) // core index of each thread
	switch bind {
	case BindClose:
		for i := 0; i < t; i++ {
			core[i] = i / a.ThreadsPerCore
		}
	case BindSpread:
		for i := 0; i < t; i++ {
			core[i] = i % cores
		}
	default:
		return Placement{}, fmt.Errorf("sim: unknown bind policy %v", bind)
	}
	perCore := make([]int, cores)
	for _, c := range core {
		perCore[c]++
	}
	active := 0
	for _, n := range perCore {
		if n > 0 {
			active++
		}
	}
	occ := make([]int, t)
	for i, c := range core {
		occ[i] = perCore[c]
	}
	return Placement{Threads: t, ActiveCores: active, Occupancy: occ}, nil
}

// Crill models the paper's primary platform: a dual-socket Intel Xeon E5
// (Sandy Bridge) node at the University of Houston with 16 cores / 32
// hyper-threads at 2.4 GHz and a 115 W package TDP, cappable through RAPL
// at the paper's levels {55, 70, 85, 100, 115} W.
func Crill() *Arch {
	return &Arch{
		Name:              "Crill",
		Sockets:           2,
		CoresPerSocket:    8,
		ThreadsPerCore:    2,
		BaseGHz:           2.4,
		MinGHz:            1.2,
		TDPW:              115,
		StaticW:           32,
		DynCoreW:          (115.0 - 32.0) / 16.0,
		L1KB:              32,
		L2KB:              256,
		L3MB:              40, // 20 MB per socket
		LineBytes:         64,
		L1LatNS:           1.6,
		L2LatNS:           5.0,
		L3LatNS:           18.0,
		MemLatNS:          85.0,
		MemBWGBs:          68,
		SMTYield:          []float64{1.0, 0.62},
		DispatchUS:        0.18,
		DispatchScale:     0.015,
		ForkBaseUS:        4.0,
		ForkStaggerUS:     1.1,
		ConfigChangeS:     0.0008, // §III-C: ~0.8 ms per region call on Crill
		InstrumentS:       0.00005,
		SpinWindowS:       0.001,
		SpinPowerFrac:     0.70,
		SleepPowerFrac:    0.10,
		UncoreCapSlope:    0.30,
		DRAMStaticW:       10,
		DRAMEnergyPerByte: 3.0e-10,
		CanCap:            true,
		HasEnergyCtr:      true,
	}
}

// Minotaur models the paper's secondary platform: an IBM S822LC with two
// 10-core POWER8 processors at 2.92 GHz, SMT-8 (160 hardware threads), no
// power-capping privilege and no energy-counter access.
func Minotaur() *Arch {
	return &Arch{
		Name:           "Minotaur",
		Sockets:        2,
		CoresPerSocket: 10,
		ThreadsPerCore: 8,
		BaseGHz:        2.92,
		MinGHz:         2.0,
		TDPW:           380,
		StaticW:        95,
		DynCoreW:       (380.0 - 95.0) / 20.0,
		L1KB:           64,
		L2KB:           512,
		L3MB:           160, // 8 MB eDRAM per core
		LineBytes:      128,
		L1LatNS:        1.1,
		L2LatNS:        4.2,
		L3LatNS:        9.5,
		MemLatNS:       90.0,
		MemBWGBs:       170,
		// POWER8 SMT throughput peaks around SMT4 for HPC codes; SMT8
		// slightly degrades aggregate throughput (k * yield[k-1] peaks at
		// k=4), which is why the default 160-thread configuration loses to
		// reduced team sizes on Minotaur (§V-C).
		SMTYield:          []float64{1.0, 0.70, 0.52, 0.42, 0.32, 0.26, 0.215, 0.18},
		DispatchUS:        0.22,
		DispatchScale:     0.010,
		ForkBaseUS:        5.0,
		ForkStaggerUS:     0.9,
		ConfigChangeS:     0.0004,
		InstrumentS:       0.00005,
		SpinWindowS:       0.001,
		SpinPowerFrac:     0.70,
		SleepPowerFrac:    0.10,
		UncoreCapSlope:    0.30,
		DRAMStaticW:       25, // 256 GB of DDR4
		DRAMEnergyPerByte: 2.5e-10,
		CanCap:            false,
		HasEnergyCtr:      false,
	}
}
