package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Machine is a mutable instance of an Arch: it carries the current package
// power cap, the simulated clock, and the accumulated package energy. The
// internal/rapl package exposes this state through a libmsr-style
// interface; the internal/omp runtime advances it as regions execute.
//
// A Machine remembers, per LoopModel, the noise-free result of its last
// probe and the inputs that decided it (config, power cap, user frequency
// request). An identical repeat, such as the paper's three runs of one arm
// or a converged region re-run every time step, reuses that result and
// only draws fresh noise. The LoopModels it probes and its Arch must
// therefore not be mutated afterwards.
//
// A Machine is NOT safe for concurrent use: probes reuse per-machine
// scratch buffers and the memo, and the noise RNG is stateful. Concurrent
// harness code must give each goroutine its own Machine (they are cheap to
// build).
type Machine struct {
	arch *Arch

	// scratch holds the reusable simulation buffers; placeCache memoises
	// Placement by (threads, bind), both keeping the probe hot path
	// allocation free. memo holds the last probe of each LoopModel, so a
	// repeated probe skips the simulation (see ProbeLoop).
	scratch    probeScratch
	placeCache map[int]Placement
	memo       map[*LoopModel]*probeMemo

	capW    float64 // 0 = uncapped (TDP)
	userGHz float64 // user-requested frequency ceiling (0 = none)
	clockS  float64 // simulated wall clock, seconds
	energyJ float64 // accumulated package energy, joules
	dramJ   float64 // accumulated DRAM energy, joules

	// Measurement noise: run-to-run variability, off by default. The
	// benchmark harness enables it to make the paper's protocol (§IV-D:
	// average of three runs on Crill, minimum of three on shared Minotaur)
	// observable.
	noiseSigma float64
	noiseSeed  int64
	noiseRNG   *rand.Rand
}

// SetNoise enables multiplicative log-normal run-to-run noise with the
// given sigma (0 disables). The stream is seeded, so runs are reproducible.
func (m *Machine) SetNoise(sigma float64, seed int64) {
	m.noiseSigma = sigma
	m.noiseSeed = seed
	if sigma > 0 {
		m.noiseRNG = rand.New(rand.NewSource(seed))
	} else {
		m.noiseRNG = nil
	}
}

// Clone returns an independent machine for concurrent probing. The clone
// shares only the immutable *Arch; the probe scratch buffers, the placement
// cache (rebuilt lazily), the probe memo (starting empty), and the noise
// RNG are private, so probing a clone from one goroutine never races with
// probes on the original or on sibling clones. Power cap, user frequency
// request, clock, and energy accumulators are copied. If noise is enabled
// the clone's RNG restarts from the recorded seed — the clone behaves like
// a fresh machine configured with the same SetNoise call, not like a fork
// of the parent mid-stream.
func (m *Machine) Clone() *Machine {
	c := &Machine{
		arch:       m.arch,
		capW:       m.capW,
		userGHz:    m.userGHz,
		clockS:     m.clockS,
		energyJ:    m.energyJ,
		dramJ:      m.dramJ,
		noiseSigma: m.noiseSigma,
		noiseSeed:  m.noiseSeed,
	}
	if c.noiseSigma > 0 {
		c.noiseRNG = rand.New(rand.NewSource(c.noiseSeed))
	}
	return c
}

// noiseFactor draws the next multiplicative perturbation (1 when disabled).
func (m *Machine) noiseFactor() float64 {
	if m.noiseRNG == nil {
		return 1
	}
	s := m.noiseSigma
	return math.Exp(m.noiseRNG.NormFloat64()*s - s*s/2)
}

// NewMachine builds a machine for the given architecture, validating it.
func NewMachine(arch *Arch) (*Machine, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return &Machine{arch: arch}, nil
}

// Arch returns the immutable architecture description.
func (m *Machine) Arch() *Arch { return m.arch }

// placement returns the (cached) placement of t threads under bind.
// Placements depend only on (arch, t, bind), so each distinct configuration
// is computed once per machine and reused allocation-free afterwards.
func (m *Machine) placement(t int, bind BindPolicy) (Placement, error) {
	if bind != BindSpread && bind != BindClose {
		return m.arch.PlaceWith(t, bind) // unknown policy: let it error, uncached
	}
	key := t<<1 | int(bind)
	if p, ok := m.placeCache[key]; ok {
		return p, nil
	}
	p, err := m.arch.PlaceWith(t, bind)
	if err != nil {
		return Placement{}, err
	}
	if m.placeCache == nil {
		m.placeCache = make(map[int]Placement)
	}
	m.placeCache[key] = p
	return p, nil
}

// SetPowerCap sets the package power limit in watts. A cap of 0 removes the
// limit (run at TDP). Architectures without capping privilege (Minotaur)
// reject non-zero caps, mirroring the paper's experimental constraints.
func (m *Machine) SetPowerCap(w float64) error {
	if w == 0 { //arcslint:ignore floatcmp 0 is the uncap sentinel, passed verbatim by callers
		m.capW = 0
		return nil
	}
	if !m.arch.CanCap {
		return fmt.Errorf("sim: %s: no power-capping privilege", m.arch.Name)
	}
	if w < 0 {
		return fmt.Errorf("sim: negative power cap %g", w)
	}
	if w > m.arch.TDPW {
		w = m.arch.TDPW // RAPL clamps limits above TDP
	}
	m.capW = w
	return nil
}

// PowerCap returns the effective package limit in watts (TDP if uncapped).
func (m *Machine) PowerCap() float64 {
	if m.capW == 0 { //arcslint:ignore floatcmp 0 is the uncap sentinel, assigned verbatim
		return m.arch.TDPW
	}
	return m.capW
}

// Capped reports whether an explicit cap below TDP is in force.
//
//arcslint:ignore floatcmp 0 is the uncap sentinel, assigned verbatim
func (m *Machine) Capped() bool { return m.capW != 0 && m.capW < m.arch.TDPW }

// SetUserFreqGHz requests a frequency ceiling below the DVFS governor's
// choice — the paper's §VII future-work DVFS policy. Zero clears the
// request. Requests outside [MinGHz, BaseGHz] are rejected.
func (m *Machine) SetUserFreqGHz(f float64) error {
	if f == 0 { //arcslint:ignore floatcmp 0 is the clear-request sentinel, passed verbatim
		m.userGHz = 0
		return nil
	}
	if f < m.arch.MinGHz || f > m.arch.BaseGHz {
		return fmt.Errorf("sim: frequency %g outside [%g, %g] GHz", f, m.arch.MinGHz, m.arch.BaseGHz)
	}
	m.userGHz = f
	return nil
}

// UserFreqGHz returns the current user frequency request (0 = none).
func (m *Machine) UserFreqGHz() float64 { return m.userGHz }

// FreqAt solves the DVFS governor: with nActive busy cores under the
// current cap, each core gets (cap - static)/nActive watts of dynamic
// budget; dynamic power follows the cubic law P(f) = DynCoreW*(f/base)^3.
// It returns the frequency and a duty factor: below MinGHz the core
// duty-cycles (clock gating), losing throughput linearly.
func (m *Machine) FreqAt(nActive int) (ghz, duty float64) {
	a := m.arch
	if nActive <= 0 {
		return a.BaseGHz, 1
	}
	budget := m.PowerCap() - a.StaticW
	if budget <= 0 {
		// Pathological cap below static power: deepest duty cycling.
		return a.MinGHz, 0.05
	}
	perCore := budget / float64(nActive)
	ratio := perCore / a.DynCoreW
	f := a.BaseGHz * math.Pow(ratio, 1/m.powerLawExp())
	if f > a.BaseGHz {
		f = a.BaseGHz
	}
	// A user DVFS request caps the governor's choice (it can only lower
	// frequency, trading time for power headroom).
	if m.userGHz > 0 && m.userGHz < f {
		f = m.userGHz
	}
	if f >= a.MinGHz {
		return f, 1
	}
	// Below the lowest DVFS point: run at MinGHz but gate the clock so the
	// average power meets the budget.
	pMin := a.DynCoreW * math.Pow(a.MinGHz/a.BaseGHz, m.powerLawExp())
	duty = perCore / pMin
	if duty < 0.05 {
		duty = 0.05
	}
	return a.MinGHz, duty
}

// CorePowerAt returns the dynamic power (watts) of one fully busy core at
// frequency ghz with the given duty factor.
func (m *Machine) CorePowerAt(ghz, duty float64) float64 {
	a := m.arch
	return a.DynCoreW * math.Pow(ghz/a.BaseGHz, m.powerLawExp()) * duty
}

// powerLawExp returns the dynamic power law exponent (cubic by default,
// overridable per architecture for the DVFS-law ablation).
func (m *Machine) powerLawExp() float64 {
	if m.arch.PowerLawExp > 0 {
		return m.arch.PowerLawExp
	}
	return 3
}

// Account advances the simulated clock by dt seconds during which the
// package drew avgPowerW watts. The omp runtime calls this once per region
// (and per overhead interval).
func (m *Machine) Account(dt, avgPowerW float64) {
	if dt < 0 {
		return
	}
	m.clockS += dt
	m.energyJ += dt * avgPowerW
}

// AccountDRAM adds DRAM energy: static DRAM power over dt plus the energy
// cost of the bytes actually transferred (the §VII future-work memory-power
// accounting; the paper could neither cap nor bill DRAM).
func (m *Machine) AccountDRAM(dt, bytes float64) {
	if dt < 0 {
		return
	}
	m.dramJ += dt*m.arch.DRAMStaticW + bytes*m.arch.DRAMEnergyPerByte
}

// Now returns the simulated wall clock in seconds.
func (m *Machine) Now() float64 { return m.clockS }

// EnergyJ returns the accumulated package energy in joules since creation.
func (m *Machine) EnergyJ() float64 { return m.energyJ }

// DRAMEnergyJ returns the accumulated DRAM energy in joules.
func (m *Machine) DRAMEnergyJ() float64 { return m.dramJ }

// Reset zeroes the clock and energy accumulators, keeping the cap.
func (m *Machine) Reset() {
	m.clockS = 0
	m.energyJ = 0
	m.dramJ = 0
}

// IdlePowerW is the package draw when no region is executing (static only;
// idle cores are power-gated in this model).
func (m *Machine) IdlePowerW() float64 { return m.arch.StaticW }
