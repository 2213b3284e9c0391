package sim

import (
	"fmt"
	"math"
)

// Schedule enumerates loop scheduling policies, mirroring OpenMP's
// schedule(static|dynamic|guided, chunk) clause semantics.
type Schedule int

const (
	// SchedStatic pre-assigns chunks round-robin; zero dispatch cost but no
	// load balancing beyond the interleave.
	SchedStatic Schedule = iota
	// SchedDynamic hands the next chunk to the first idle thread; perfect
	// balancing at the cost of one dispatch per chunk.
	SchedDynamic
	// SchedGuided hands out exponentially shrinking chunks (remaining/T,
	// floored at the chunk parameter).
	SchedGuided
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case SchedStatic:
		return "static"
	case SchedDynamic:
		return "dynamic"
	case SchedGuided:
		return "guided"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Config is one point of the ARCS search space as seen by the simulator:
// thread count, schedule kind and chunk size. Chunk 0 requests the OpenMP
// default (iterations/threads for static, 1 for dynamic and guided).
type Config struct {
	Threads int
	Sched   Schedule
	Chunk   int
	// Bind is the thread placement policy (OMP_PROC_BIND); the zero value
	// is spread, the paper's configuration.
	Bind BindPolicy
}

// String renders the config the way the paper writes them: "16, guided, 8".
func (c Config) String() string {
	ch := "default"
	if c.Chunk > 0 {
		ch = fmt.Sprintf("%d", c.Chunk)
	}
	return fmt.Sprintf("%d, %s, %s", c.Threads, c.Sched, ch)
}

// ExecResult reports everything the OMPT/APEX layers observe about one
// region execution.
type ExecResult struct {
	TimeS     float64 // wall time of the region (fork to join)
	EnergyJ   float64 // package energy including static share
	AvgPowerW float64 // EnergyJ / TimeS
	FreqGHz   float64 // DVFS point used
	Duty      float64 // duty factor (<1 only under extreme caps)

	Miss MissRates // modelled miss rates (occupancy-weighted)

	// DRAMBytes is the memory traffic of the execution; DRAMEnergyJ the
	// corresponding DRAM energy (outside the package domain).
	DRAMBytes   float64
	DRAMEnergyJ float64

	LoopS     float64 // longest per-thread busy time (the critical path)
	SerialS   float64 // master-only section time
	BarrierS  float64 // total wait time across the team
	DispatchS float64 // total dispatch overhead across the team
	Chunks    int     // chunks dispatched

	PerThreadBusyS []float64 // busy (work+dispatch) seconds per thread
	PerThreadWaitS []float64 // barrier wait seconds per thread
}

// BarrierFrac returns barrier time as a fraction of total thread-seconds,
// the load-balance metric plotted in Figs. 3d, 6 and 10.
func (r *ExecResult) BarrierFrac() float64 {
	total := r.TimeS * float64(len(r.PerThreadBusyS))
	if total <= 0 {
		return 0
	}
	return r.BarrierS / total
}

// threadState is one thread's entry in the dispatcher.
type threadState struct {
	avail float64 // time the thread becomes idle
	id    int
}

// before is the dispatch order: earliest-idle first, ties to the lower id.
func (a threadState) before(b threadState) bool {
	//arcslint:ignore floatcmp exact equality defines the deterministic tie-break order
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	return a.id < b.id
}

// loserTree is the dispatcher of the reference and guided-decay paths: a
// tournament tree over the team's next-idle times, ordered by before. Each
// internal node keeps the loser of the match played there and node[0] the
// overall winner, so node[:p] holds every leaf once. After the winner's
// time grows, replaying its leaf-to-root path costs ⌈log₂T⌉ comparisons.
// The team is padded to a power of two with +Inf leaves whose ids exceed
// every thread's, so they never win.
type loserTree struct {
	avail []float64     // the caller's per-thread next-idle times, advanced in place
	node  []threadState // node[0] is the winner, node[1:p] the losers, node[p:] the leaves

	// argmin, when set, replaces the tree's pick with an independent one:
	// it returns the earliest-idle thread of avail (tests check the tree's
	// dispatch against a linear scan through it).
	argmin func(avail []float64) int
}

// init loads the team's next-idle times and plays every match. The tree
// keeps avail and advances it in place.
func (lt *loserTree) init(avail []float64) {
	lt.avail = avail
	p := 1
	for p < len(avail) {
		p <<= 1
	}
	if cap(lt.node) < 2*p {
		lt.node = make([]threadState, 2*p)
	}
	nd := lt.node[:2*p]
	lt.node = nd
	for i := 0; i < p; i++ {
		a := math.Inf(1)
		if i < len(avail) {
			a = avail[i]
		}
		nd[p+i] = threadState{avail: a, id: i}
	}
	// Winners bottom-up; then, top-down while the children still hold
	// their winners, each internal node keeps the one that lost.
	for n := p - 1; n >= 1; n-- {
		a, b := nd[2*n], nd[2*n+1]
		if b.before(a) {
			a = b
		}
		nd[n] = a
	}
	nd[0] = nd[1]
	for n := 1; n < p; n++ {
		if nd[2*n].id == nd[n].id {
			nd[n] = nd[2*n+1]
		} else {
			nd[n] = nd[2*n]
		}
	}
	if lt.argmin != nil {
		lt.pick()
	}
}

// winner returns the earliest-idle thread.
func (lt *loserTree) winner() int { return lt.node[0].id }

// advance adds c to the winner's next-idle time and replays its path.
func (lt *loserTree) advance(c float64) {
	w := lt.node[0]
	w.avail += c
	lt.avail[w.id] = w.avail
	if lt.argmin != nil {
		lt.node[0] = w
		lt.pick()
		return
	}
	for n := (len(lt.node)/2 + w.id) >> 1; n > 0; n >>= 1 {
		if l := lt.node[n]; l.before(w) {
			lt.node[n], w = w, l
		}
	}
	lt.node[0] = w
}

// pick swaps argmin's choice into node[0].
func (lt *loserTree) pick() {
	id := lt.argmin(lt.avail)
	for j := range lt.node[:len(lt.node)/2] {
		if lt.node[j].id == id {
			lt.node[0], lt.node[j] = lt.node[j], lt.node[0]
			return
		}
	}
}

// probeScratch holds the reusable per-Machine buffers behind a simulation,
// so the probe path allocates nothing beyond the buffer behind the two
// per-thread slices copied into each ExecResult. A Machine (and therefore
// ProbeLoop) is not safe for concurrent use; the experiment harness gives
// every worker goroutine its own Machine.
type probeScratch struct {
	missByOcc   []MissRates
	compByOcc   []float64
	memByOcc    []float64
	iterNSByOcc []float64
	start       []float64
	finish      []float64
	tree        loserTree
	counts      []int
}

// growF returns s resized to n, reusing capacity when possible. Contents
// are unspecified; callers overwrite every element.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// dispatchEqualChunks assigns n chunks of identical cost cS (the final,
// possibly partial, chunk costing cLastS) to the threads whose next-idle
// times are finish[i], exactly as the reference dispatcher would:
// the earliest-idle thread (ties by lower id) grabs each chunk in turn.
// Because every chunk costs the same, thread i's dispatch instants form the
// arithmetic progression finish[i] + k*cS, and the greedy assignment is the
// n smallest elements of the union of those t progressions. The split is
// found by bisecting the instant threshold — O(t log n) instead of
// O(n log t) tree replays. busy and finish are updated in place; it
// reports false (leaving them untouched) in degenerate cases the bisection
// cannot resolve, and the caller falls back to the reference dispatcher.
func (m *Machine) dispatchEqualChunks(busy, finish []float64, n int, cS, cLastS float64) bool {
	t := len(finish)
	if n <= 0 || cS <= 0 {
		return false
	}
	// count(T): dispatch instants <= T, with per-thread contributions capped
	// at n to keep the arithmetic in range.
	count := func(T float64) int {
		total := 0
		for _, a := range finish {
			if T >= a {
				k := (T - a) / cS
				if k >= float64(n) {
					total += n
				} else {
					total += int(k) + 1
				}
				if total >= (1 << 40) {
					return 1 << 40
				}
			}
		}
		return total
	}
	lo := finish[0]
	for _, a := range finish {
		if a < lo {
			lo = a
		}
	}
	hi := lo + float64(n)*cS // the min-avail thread alone reaches n instants by here
	if math.IsInf(hi, 0) || math.IsNaN(hi) {
		return false
	}
	if count(lo) < n {
		// Invariant: count(lo) < n <= count(hi); bisect to float precision.
		for iter := 0; iter < 128; iter++ {
			mid := lo + (hi-lo)/2
			if mid <= lo || mid >= hi {
				break
			}
			if count(mid) >= n {
				hi = mid
			} else {
				lo = mid
			}
		}
	} else {
		hi = lo
	}
	// Per-thread counts at the threshold, then trim the overshoot by
	// removing the latest-dispatched chunks (largest instant; ties resolved
	// against the higher id, the reverse of the dispatch order).
	if cap(m.scratch.counts) < t {
		m.scratch.counts = make([]int, t)
	}
	k := m.scratch.counts[:t]
	total := 0
	for i := range k {
		k[i] = 0
	}
	for i, a := range finish {
		if hi >= a {
			q := (hi - a) / cS
			if q >= float64(n) {
				k[i] = n
			} else {
				k[i] = int(q) + 1
			}
			total += k[i]
		}
	}
	if total < n {
		return false // numerical corner; let the reference dispatcher handle it
	}
	for guard := 0; total > n; guard++ {
		if guard > 4*t+64 {
			return false
		}
		drop, found := -1, false
		var worst float64
		for i := 0; i < t; i++ {
			if k[i] == 0 {
				continue
			}
			last := finish[i] + float64(k[i]-1)*cS
			//arcslint:ignore floatcmp exact tie-break between identically computed finish times
			if !found || last > worst || (last == worst && i > drop) {
				drop, worst, found = i, last, true
			}
		}
		if !found {
			return false
		}
		k[drop]--
		total--
	}
	// The final (partial) chunk belongs to the thread holding the largest
	// assigned instant (ties by higher id — it was dispatched last).
	owner, found := -1, false
	var worst float64
	for i := 0; i < t; i++ {
		if k[i] == 0 {
			continue
		}
		last := finish[i] + float64(k[i]-1)*cS
		//arcslint:ignore floatcmp exact tie-break between identically computed finish times
		if !found || last > worst || (last == worst && i > owner) {
			owner, worst, found = i, last, true
		}
	}
	if !found {
		return false
	}
	for i := 0; i < t; i++ {
		if k[i] == 0 {
			continue
		}
		c := float64(k[i]) * cS
		busy[i] += c
		finish[i] += c
	}
	adj := cLastS - cS
	busy[owner] += adj
	finish[owner] += adj
	return true
}

// ResolveChunk applies OpenMP defaulting rules for a chunk parameter of 0.
func ResolveChunk(sched Schedule, chunk, iters, threads int) int {
	if chunk > 0 {
		return chunk
	}
	if sched == SchedStatic {
		c := (iters + threads - 1) / threads
		if c < 1 {
			c = 1
		}
		return c
	}
	return 1
}

// probeMemo is a Machine's record of its last probe of one LoopModel: the
// inputs that decide the noise-free result, and that result. The floats
// are compared bit for bit.
type probeMemo struct {
	ok      bool // res holds the result of (cfg, capBits, ghzBits)
	cfg     Config
	capBits uint64 // math.Float64bits of the machine's capW
	ghzBits uint64 // math.Float64bits of the machine's userGHz

	// res is the noise-free result. AvgPowerW, DRAMBytes and DRAMEnergyJ
	// depend on the noise factor and are left unset. Its per-thread slices
	// are the two halves of perThread, the simulation's busy and wait
	// buffers, which the next miss reuses.
	res       ExecResult
	perThread []float64
}

// holds reports whether e is the result of probing under cfg on m now.
func (e *probeMemo) holds(m *Machine, cfg Config) bool {
	return e.ok && e.cfg == cfg &&
		e.capBits == math.Float64bits(m.capW) && e.ghzBits == math.Float64bits(m.userGHz)
}

// result applies the noise factor nf to the memoised result and returns it
// with a fresh copy of the per-thread slices, both in one allocation.
func (e *probeMemo) result(nf float64, iters int, a *Arch) ExecResult {
	r := e.res
	t := len(r.PerThreadBusyS)
	pt := make([]float64, 2*t)
	copy(pt, e.perThread)
	r.PerThreadBusyS, r.PerThreadWaitS = pt[:t:t], pt[t:]
	// Run-to-run measurement noise (1 unless enabled): scales the whole
	// execution uniformly, leaving power and miss rates unchanged.
	if nf != 1 { //arcslint:ignore floatcmp 1 is the noise-disabled sentinel, returned verbatim
		r.TimeS *= nf
		r.EnergyJ *= nf
		r.SerialS *= nf
		r.BarrierS *= nf
		r.DispatchS *= nf
		r.LoopS *= nf
		for i := range pt {
			pt[i] *= nf
		}
	}
	r.DRAMBytes = r.Miss.BytesPerIter * float64(iters) * nf
	r.AvgPowerW = r.EnergyJ / math.Max(r.TimeS, 1e-12)
	r.DRAMEnergyJ = a.DRAMStaticW*r.TimeS + a.DRAMEnergyPerByte*r.DRAMBytes
	return r
}

// ProbeLoop simulates one execution of lm under cfg without advancing the
// machine clock or energy counter. ExecuteLoop is Probe + Account; tests
// and calibration tools use Probe directly.
//
// The machine remembers its last probe of each LoopModel. A probe whose
// cfg, power cap and user frequency request equal that probe's reuses its
// noise-free result instead of simulating again; the noise factor is drawn
// and applied on every call, so the result and the noise stream are the
// same as without the memo. This is why neither lm nor the machine's Arch
// may be mutated once the machine has probed it.
//
//arcslint:hotpath every search probe runs through here; scratch buffers make it allocation-free
func (m *Machine) ProbeLoop(lm *LoopModel, cfg Config) (ExecResult, error) {
	e := m.memo[lm]
	if e == nil {
		if m.memo == nil {
			m.memo = make(map[*LoopModel]*probeMemo)
		}
		e = &probeMemo{}
		m.memo[lm] = e
	}
	if !e.holds(m, cfg) {
		if err := m.simulate(lm, cfg, e); err != nil {
			return ExecResult{}, err
		}
	}
	return e.result(m.noiseFactor(), lm.Iters, m.arch), nil
}

// simulate runs the region model: it dispatches every chunk of lm under
// cfg on the machine as it is now and stores the noise-free result in e.
//
//arcslint:hotpath the memo's miss path; scratch buffers make it allocation-free
func (m *Machine) simulate(lm *LoopModel, cfg Config, e *probeMemo) error {
	e.ok = false
	if err := lm.Validate(); err != nil {
		return err
	}
	place, err := m.placement(cfg.Threads, cfg.Bind)
	if err != nil {
		return err
	}
	a := m.arch
	t := cfg.Threads
	f, duty := m.FreqAt(place.ActiveCores)
	sc := &m.scratch

	// Per-occupancy-class iteration cost (nanoseconds).
	maxOcc := 1
	for _, k := range place.Occupancy {
		if k > maxOcc {
			maxOcc = k
		}
	}
	if cap(sc.missByOcc) < maxOcc+1 {
		sc.missByOcc = make([]MissRates, maxOcc+1)
	}
	missByOcc := sc.missByOcc[:maxOcc+1]
	sc.compByOcc = growF(sc.compByOcc, maxOcc+1)
	sc.memByOcc = growF(sc.memByOcc, maxOcc+1)
	sc.iterNSByOcc = growF(sc.iterNSByOcc, maxOcc+1)
	compByOcc, memByOcc := sc.compByOcc, sc.memByOcc
	chunk := ResolveChunk(cfg.Sched, cfg.Chunk, lm.Iters, t)
	for k := 1; k <= maxOcc; k++ {
		mr := a.missRates(lm.Mem, t, chunk, k)
		missByOcc[k] = mr
		compByOcc[k] = lm.CompNSPerIter * (a.BaseGHz / f) / (a.SMTYield[k-1] * duty)
		memByOcc[k] = a.memStall(lm.Mem, mr, f, chunk)
	}

	// Memory-bandwidth saturation: scale the stall component until the
	// aggregate DRAM demand fits. A few fixed-point rounds converge because
	// higher stalls lower the demand monotonically.
	bwScale := 1.0
	for round := 0; round < 4; round++ {
		demand := 0.0 // GB/s
		for _, k := range place.Occupancy {
			iterNS := compByOcc[k] + memByOcc[k]*bwScale
			if iterNS <= 0 {
				continue
			}
			demand += missByOcc[k].BytesPerIter / iterNS // bytes/ns == GB/s
		}
		if demand <= a.MemBWGBs {
			break
		}
		bwScale *= demand / a.MemBWGBs
	}
	iterNSByOcc := sc.iterNSByOcc
	for k := 1; k <= maxOcc; k++ {
		iterNSByOcc[k] = compByOcc[k] + memByOcc[k]*bwScale
	}

	// Fork: threads start staggered.
	sc.start = growF(sc.start, t)
	start := sc.start
	for i := range start {
		start[i] = (a.ForkBaseUS + a.ForkStaggerUS*float64(i)) * 1e-6
	}

	dispatchNS := a.DispatchUS * 1000 * (1 + a.DispatchScale*float64(t-1))
	sc.finish = growF(sc.finish, t)
	finish := sc.finish
	e.perThread = growF(e.perThread, 2*t)
	busy, waits := e.perThread[:t], e.perThread[t:]
	copy(finish, start)
	for i := range busy {
		busy[i] = 0
	}
	chunksDispatched := 0
	totalDispatchS := 0.0

	// Dispatch cost hoisting: the weight of chunk [lo, hi) is hi-lo for
	// uniform loops (no weight vector needed) and a prefix-sum difference
	// otherwise; both are multiplied by the occupancy-class iteration cost.
	uniform := lm.uniform()
	var prefix []float64
	if !uniform {
		lm.BuildPrefix()
		prefix = lm.prefix
	}
	// occUniform: every thread runs at the same occupancy, so every equal
	// size chunk costs the same no matter which thread grabs it — the
	// precondition for the batched dynamic/guided fast paths.
	occUniform := true
	for _, k := range place.Occupancy {
		if k != place.Occupancy[0] {
			occUniform = false
			break
		}
	}

	switch cfg.Sched {
	case SchedStatic:
		if uniform {
			// Closed form: chunk turn goes to thread turn%t, so per-thread
			// iteration totals are pure arithmetic over iters/chunk — no
			// per-chunk loop.
			nChunks := (lm.Iters + chunk - 1) / chunk
			lastSz := lm.Iters - (nChunks-1)*chunk
			lastTid := (nChunks - 1) % t
			for tid := 0; tid < t; tid++ {
				nc := nChunks / t
				if tid < nChunks%t {
					nc++
				}
				if nc == 0 {
					continue
				}
				iters := nc * chunk
				if tid == lastTid {
					iters += lastSz - chunk
				}
				c := float64(iters) * iterNSByOcc[place.Occupancy[tid]] * 1e-9
				finish[tid] += c
				busy[tid] += c
			}
			chunksDispatched = nChunks
		} else {
			// Reference path: round-robin pre-assignment, no dispatch cost.
			for pos, turn := 0, 0; pos < lm.Iters; turn++ {
				tid := turn % t
				hi := pos + chunk
				if hi > lm.Iters {
					hi = lm.Iters
				}
				c := (prefix[hi] - prefix[pos]) * iterNSByOcc[place.Occupancy[tid]] * 1e-9
				finish[tid] += c
				busy[tid] += c
				pos = hi
				chunksDispatched++
			}
		}
	case SchedDynamic, SchedGuided:
		dS := dispatchNS * 1e-9
		remaining := lm.Iters
		if uniform && occUniform {
			iterS := iterNSByOcc[place.Occupancy[0]] * 1e-9
			if cfg.Sched == SchedGuided {
				// Guided decay phase: exponentially shrinking chunks until
				// the floor is reached. O(t log(iters/chunk)) chunks; the
				// constant-size tail below is batched.
				tr := &sc.tree
				tr.init(finish)
				for remaining > 0 {
					g := (remaining + t - 1) / t
					if g <= chunk {
						break
					}
					sz := g
					c := dS + float64(sz)*iterS
					busy[tr.winner()] += c
					totalDispatchS += dS
					tr.advance(c)
					remaining -= sz
					chunksDispatched++
				}
			}
			if remaining > 0 {
				// Batched equal-cost dispatch: all remaining chunks have
				// size chunk (the last one possibly smaller) and identical
				// cost, so the greedy earliest-idle assignment reduces to
				// selecting the n smallest dispatch instants across t
				// arithmetic progressions.
				n := (remaining + chunk - 1) / chunk
				rem := remaining - (n-1)*chunk
				cS := dS + float64(chunk)*iterS
				cLastS := dS + float64(rem)*iterS
				if cS > 0 && m.dispatchEqualChunks(busy, finish, n, cS, cLastS) {
					chunksDispatched += n
					totalDispatchS += float64(n) * dS
					remaining = 0
				}
			}
		}
		if remaining > 0 {
			// Reference path: one tree replay per dispatched chunk.
			tr := &sc.tree
			tr.init(finish)
			pos := lm.Iters - remaining
			for remaining > 0 {
				id := tr.winner() // earliest-idle thread grabs the next chunk
				sz := chunk
				if cfg.Sched == SchedGuided {
					g := (remaining + t - 1) / t
					if g > sz {
						sz = g
					}
				}
				if sz > remaining {
					sz = remaining
				}
				var w float64
				if uniform {
					w = float64(sz)
				} else {
					w = prefix[pos+sz] - prefix[pos]
				}
				c := dS + w*iterNSByOcc[place.Occupancy[id]]*1e-9
				busy[id] += c
				totalDispatchS += dS
				tr.advance(c)
				pos += sz
				remaining -= sz
				chunksDispatched++
			}
		}
	default:
		return fmt.Errorf("sim: unknown schedule %v", cfg.Sched)
	}

	loopEnd := 0.0
	for _, ft := range finish {
		if ft > loopEnd {
			loopEnd = ft
		}
	}

	// Master-only serial section: runs after the master drains its chunks,
	// possibly overlapping other threads' tails.
	serialS := lm.SerialNS * (a.BaseGHz / f) / duty * 1e-9
	masterDone := finish[0] + serialS
	regionEnd := loopEnd
	if masterDone > regionEnd {
		regionEnd = masterDone
	}

	var barrierS float64
	for i := 0; i < t; i++ {
		end := finish[i]
		if i == 0 {
			end = masterDone
		}
		w := regionEnd - end
		if w < 0 {
			w = 0
		}
		waits[i] = w
		barrierS += w
	}

	// Energy. Static power runs for the whole region; each busy thread
	// draws its share of its core's dynamic power; barrier waits spin for
	// SpinWindow then sleep.
	corePower := m.CorePowerAt(f, duty)
	energy := a.StaticW * regionEnd
	for i := 0; i < t; i++ {
		share := corePower / float64(place.Occupancy[i])
		b := busy[i]
		if i == 0 {
			b += serialS
		}
		energy += share * b
		spin := waits[i]
		if spin > a.SpinWindowS {
			energy += share * a.SpinPowerFrac * a.SpinWindowS
			energy += share * a.SleepPowerFrac * (waits[i] - a.SpinWindowS)
		} else {
			energy += share * a.SpinPowerFrac * spin
		}
	}

	// Occupancy-weighted miss rates for reporting.
	var rep MissRates
	for _, k := range place.Occupancy {
		rep.L1 += missByOcc[k].L1
		rep.L2 += missByOcc[k].L2
		rep.L3 += missByOcc[k].L3
		rep.BytesPerIter += missByOcc[k].BytesPerIter
	}
	inv := 1 / float64(t)
	rep.L1 *= inv
	rep.L2 *= inv
	rep.L3 *= inv
	rep.BytesPerIter *= inv

	maxBusy := 0.0
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}

	e.res = ExecResult{
		TimeS:          regionEnd,
		EnergyJ:        energy,
		FreqGHz:        f,
		Duty:           duty,
		Miss:           rep,
		LoopS:          maxBusy,
		SerialS:        serialS,
		BarrierS:       barrierS,
		DispatchS:      totalDispatchS,
		Chunks:         chunksDispatched,
		PerThreadBusyS: busy,
		PerThreadWaitS: waits,
	}
	e.cfg = cfg
	e.capBits = math.Float64bits(m.capW)
	e.ghzBits = math.Float64bits(m.userGHz)
	e.ok = true
	return nil
}

// ExecuteLoop simulates one execution of lm under cfg and advances the
// machine clock and energy counter accordingly.
func (m *Machine) ExecuteLoop(lm *LoopModel, cfg Config) (ExecResult, error) {
	res, err := m.ProbeLoop(lm, cfg)
	if err != nil {
		return res, err
	}
	m.Account(res.TimeS, res.AvgPowerW)
	m.AccountDRAM(res.TimeS, res.DRAMBytes)
	return res, nil
}

// AccountOverhead charges dt seconds of single-core runtime overhead
// (configuration changes, instrumentation) to the machine: static power
// plus one busy core at the current single-core DVFS point.
func (m *Machine) AccountOverhead(dt float64) {
	if dt <= 0 {
		return
	}
	f, duty := m.FreqAt(1)
	m.Account(dt, m.arch.StaticW+m.CorePowerAt(f, duty))
	m.AccountDRAM(dt, 0)
}
