package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for arbitrary valid loop models and configurations, every
// execution satisfies the structural invariants the OMPT layer relies on.
func TestExecInvariantsProperty(t *testing.T) {
	arch := Crill()
	m, err := NewMachine(arch)
	if err != nil {
		t.Fatal(err)
	}
	f := func(iters uint16, compUS uint16, serialUS uint16, imKind, blocks uint8,
		acc uint16, twKB uint16, footMB uint8, stride, boundary uint8,
		threads uint8, sched uint8, chunk uint16, bind, capSel uint8) bool {

		lm := &LoopModel{
			Name:          "prop",
			Iters:         int(iters%5000) + 1,
			CompNSPerIter: float64(compUS) * 10,
			SerialNS:      float64(serialUS) * 100,
			Imbalance: Imbalance{
				Kind:   ImbalanceKind(imKind % 5),
				Param:  float64(blocks%4)*0.4 + 0.1,
				Blocks: int(blocks%6) + 1,
				Seed:   int64(acc),
			},
			Mem: CacheSpec{
				AccessesPerIter:  float64(acc % 2000),
				BytesPerIter:     float64(twKB%4096) + 8,
				StrideElems:      int(stride%64) + 1,
				TemporalWindowKB: float64(twKB),
				FootprintMB:      float64(footMB),
				BoundaryLines:    float64(boundary % 64),
				PassesPerChunk:   1 + float64(blocks%3),
				L3Contention:     float64(bind%10) / 10,
				MLP:              1 + float64(stride%8),
			},
		}
		cfg := Config{
			Threads: int(threads%32) + 1,
			Sched:   Schedule(sched % 3),
			Chunk:   int(chunk % 1024),
			Bind:    BindPolicy(bind % 2),
		}
		caps := []float64{0, 55, 70, 85, 100}
		if err := m.SetPowerCap(caps[int(capSel)%len(caps)]); err != nil {
			return false
		}
		res, err := m.ProbeLoop(lm, cfg)
		if err != nil {
			return false
		}
		if !(res.TimeS > 0 && res.EnergyJ > 0) {
			return false
		}
		if res.LoopS > res.TimeS+1e-12 {
			return false
		}
		if res.BarrierS < 0 || res.DispatchS < 0 || res.SerialS < 0 {
			return false
		}
		if res.FreqGHz < arch.MinGHz-1e-9 || res.FreqGHz > arch.BaseGHz+1e-9 {
			return false
		}
		if res.Duty <= 0 || res.Duty > 1 {
			return false
		}
		if res.AvgPowerW > arch.TDPW*1.05 || res.AvgPowerW < arch.StaticW*0.99 {
			return false
		}
		if len(res.PerThreadBusyS) != cfg.Threads || len(res.PerThreadWaitS) != cfg.Threads {
			return false
		}
		for i := range res.PerThreadBusyS {
			if res.PerThreadBusyS[i] < 0 || res.PerThreadWaitS[i] < -1e-12 {
				return false
			}
		}
		if res.Miss.L1 < 0 || res.Miss.L1 > 1 || res.Miss.L2 < 0 || res.Miss.L2 > 1 ||
			res.Miss.L3 < 0 || res.Miss.L3 > 1 {
			return false
		}
		if res.DRAMBytes < 0 || res.DRAMEnergyJ < 0 {
			return false
		}
		// All iterations are executed exactly once: total busy work must be
		// at least the serial lower bound of the weighted compute (a cheap
		// conservation sanity check at base frequency).
		return res.Chunks >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// relClose reports |a-b| <= tol * max(|a|, |b|, 1e-30).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-30 {
		scale = 1e-30
	}
	return d <= tol*scale
}

// Differential property: for uniform-weight loops the closed-form/batched
// dispatch fast paths must agree with the reference dispatcher. A Ramp
// imbalance with Param 0 produces the exact same constant-1 weight vector
// but is classified as weighted, so it runs the reference path — probing
// the same loop both ways compares fast path against reference directly.
//
// Busy times and scalars are compared relative to their own size. A wait
// is regionEnd − end, the difference of two times as large as the region,
// so its rounding error scales with the region's TimeS, not with the wait:
// each wait is bounded by tol × TimeS, and BarrierS, the team's sum of
// waits, by tol × TimeS per thread. The samples come from a fixed seed, so
// a failure reproduces.
func TestFastPathMatchesReference(t *testing.T) {
	const tol = 1e-9
	for _, arch := range []*Arch{Crill(), Minotaur()} {
		fast, err := NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMachine(arch)
		if err != nil {
			t.Fatal(err)
		}
		f := func(iters uint16, compUS uint16, serialUS uint16,
			acc uint16, twKB uint16, footMB uint8, stride, boundary uint8,
			threadSel uint8, sched uint8, chunk uint16, bind, capSel uint8) bool {

			mem := CacheSpec{
				AccessesPerIter:  float64(acc % 2000),
				BytesPerIter:     float64(twKB%4096) + 8,
				StrideElems:      int(stride%64) + 1,
				TemporalWindowKB: float64(twKB),
				FootprintMB:      float64(footMB),
				BoundaryLines:    float64(boundary % 64),
				PassesPerChunk:   1 + float64(stride%3),
				L3Contention:     float64(bind%10) / 10,
				MLP:              1 + float64(stride%8),
			}
			mk := func(kind ImbalanceKind) *LoopModel {
				return &LoopModel{
					Name:          "diff",
					Iters:         int(iters%50000) + 1,
					CompNSPerIter: float64(compUS) * 10,
					SerialNS:      float64(serialUS) * 100,
					Imbalance:     Imbalance{Kind: kind}, // Ramp keeps Param 0: constant weights
					Mem:           mem,
				}
			}
			// Mix of occupancy-uniform and non-uniform team sizes.
			threads := []int{1, 2, 3, 8, arch.Cores(), arch.Cores() + arch.Cores()/2, arch.HWThreads()}[int(threadSel)%7]
			cfg := Config{
				Threads: threads,
				Sched:   Schedule(sched % 3),
				Chunk:   int(chunk % 600),
				Bind:    BindPolicy(bind % 2),
			}
			caps := []float64{0, 55, 70, 85, 100}
			capW := caps[int(capSel)%len(caps)]
			if !arch.CanCap {
				capW = 0
			}
			if err := fast.SetPowerCap(capW); err != nil {
				return false
			}
			if err := ref.SetPowerCap(capW); err != nil {
				return false
			}
			fr, err1 := fast.ProbeLoop(mk(Uniform), cfg)
			rr, err2 := ref.ProbeLoop(mk(Ramp), cfg)
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("%s %v: error mismatch: %v vs %v", arch.Name, cfg, err1, err2)
				return false
			}
			if err1 != nil {
				return true // both rejected the config identically
			}
			if fr.Chunks != rr.Chunks {
				t.Errorf("%s %v: chunks %d != %d", arch.Name, cfg, fr.Chunks, rr.Chunks)
				return false
			}
			scalars := [][2]float64{
				{fr.TimeS, rr.TimeS}, {fr.EnergyJ, rr.EnergyJ},
				{fr.LoopS, rr.LoopS}, {fr.SerialS, rr.SerialS},
				{fr.DispatchS, rr.DispatchS},
				{fr.DRAMBytes, rr.DRAMBytes}, {fr.DRAMEnergyJ, rr.DRAMEnergyJ},
			}
			for i, s := range scalars {
				if !relClose(s[0], s[1], tol) {
					t.Errorf("%s %v: scalar %d: fast %v != ref %v", arch.Name, cfg, i, s[0], s[1])
					return false
				}
			}
			if math.Abs(fr.BarrierS-rr.BarrierS) > tol*rr.TimeS*float64(cfg.Threads) {
				t.Errorf("%s %v: barrier fast %v != ref %v", arch.Name, cfg, fr.BarrierS, rr.BarrierS)
				return false
			}
			for i := range fr.PerThreadBusyS {
				if !relClose(fr.PerThreadBusyS[i], rr.PerThreadBusyS[i], tol) ||
					math.Abs(fr.PerThreadWaitS[i]-rr.PerThreadWaitS[i]) > tol*rr.TimeS {
					t.Errorf("%s %v: thread %d: busy/wait fast (%v, %v) != ref (%v, %v)",
						arch.Name, cfg, i, fr.PerThreadBusyS[i], fr.PerThreadWaitS[i],
						rr.PerThreadBusyS[i], rr.PerThreadWaitS[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
		}
	}
}

// Deterministic fast-path differential coverage of the benchmark grid
// (every schedule × chunk used by the perf benchmarks, LULESH-scale).
func TestFastPathMatchesReferenceGrid(t *testing.T) {
	arch := Crill()
	fast, err := NewMachine(arch)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMachine(arch)
	if err != nil {
		t.Fatal(err)
	}
	mem := CacheSpec{
		AccessesPerIter: 4000, BytesPerIter: 8192, TemporalWindowKB: 600,
		FootprintMB: 250, BoundaryLines: 64, PassesPerChunk: 3, L3Contention: 0.9, MLP: 2,
	}
	for _, iters := range []int{1, 7, 10404, 91125} {
		for _, sched := range []Schedule{SchedStatic, SchedDynamic, SchedGuided} {
			for _, chunk := range []int{0, 1, 8, 128} {
				for _, threads := range []int{1, 16, 24, 32} {
					cfg := Config{Threads: threads, Sched: sched, Chunk: chunk}
					u := &LoopModel{Name: "u", Iters: iters, CompNSPerIter: 15000, Mem: mem}
					r := &LoopModel{Name: "r", Iters: iters, CompNSPerIter: 15000,
						Imbalance: Imbalance{Kind: Ramp}, Mem: mem}
					fr, err := fast.ProbeLoop(u, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := ref.ProbeLoop(r, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if fr.Chunks != rr.Chunks {
						t.Errorf("%v iters=%d: chunks %d != %d", cfg, iters, fr.Chunks, rr.Chunks)
					}
					if !relClose(fr.TimeS, rr.TimeS, 1e-9) || !relClose(fr.EnergyJ, rr.EnergyJ, 1e-9) ||
						!relClose(fr.BarrierS, rr.BarrierS, 1e-9) || !relClose(fr.DispatchS, rr.DispatchS, 1e-9) {
						t.Errorf("%v iters=%d: fast (%v J=%v B=%v D=%v) != ref (%v J=%v B=%v D=%v)",
							cfg, iters, fr.TimeS, fr.EnergyJ, fr.BarrierS, fr.DispatchS,
							rr.TimeS, rr.EnergyJ, rr.BarrierS, rr.DispatchS)
					}
				}
			}
		}
	}
}

// Property: the capped average power never exceeds the cap (plus epsilon),
// for any configuration.
func TestCapRespectedProperty(t *testing.T) {
	m, err := NewMachine(Crill())
	if err != nil {
		t.Fatal(err)
	}
	f := func(threads uint8, sched uint8, chunk uint8, capSel uint8) bool {
		caps := []float64{55, 70, 85, 100}
		capW := caps[int(capSel)%len(caps)]
		if err := m.SetPowerCap(capW); err != nil {
			return false
		}
		lm := &LoopModel{
			Name: "cap", Iters: 2048, CompNSPerIter: 30000,
			Mem: CacheSpec{AccessesPerIter: 200, BytesPerIter: 1024, TemporalWindowKB: 32, FootprintMB: 8, MLP: 4},
		}
		res, err := m.ProbeLoop(lm, Config{
			Threads: int(threads%32) + 1,
			Sched:   Schedule(sched % 3),
			Chunk:   int(chunk),
		})
		if err != nil {
			return false
		}
		return res.AvgPowerW <= capW*1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
