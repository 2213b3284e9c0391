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
// region execution. Its per-thread slices are views of the probing
// Machine's output buffer: they stay valid until that machine's next probe,
// which overwrites them. A caller that keeps them longer copies them;
// writing to them never reaches the machine's probe table.
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

	PerThreadBusyS []float64 // busy (work+dispatch) seconds per thread; valid until the next probe
	PerThreadWaitS []float64 // barrier wait seconds per thread; valid until the next probe
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

// runQueue is the per-chunk dispatcher of dynamic and guided regions: the
// team's threads sorted by (next-idle time, id), earliest first, ties to
// the lower id. The head is the winner. dispatch runs every chunk of a
// region through one loop that keeps the sorted window q[head:tail] and
// each thread's next-idle time in locals and queue entries, and writes
// the times back to avail once, at the end. After the winner's time grows
// it goes back in behind every thread that still precedes it: appended at
// the tail, inline, when it sorts last, as a thread that just took a
// chunk usually does; otherwise advance places it, by a backward scan and
// shift when it lands at most nearSlots places from the tail, as most of
// the rest do, and by a binary search and one copy shifting the threads
// on the shorter side of its place by a slot (toward the tail, or into
// the slot the winner left before the head) when it lands farther. The
// window slides through a buffer of several team sizes and moves back to
// the buffer's start when it reaches the end. Every (avail, id) total
// order picks the same thread for every chunk, so the result is the one
// any exact earliest-idle dispatcher gives.
type runQueue struct {
	avail      []float64      // the caller's per-thread next-idle times
	q          []queuedThread // q[head:tail] is the team in dispatch order
	head, tail int

	// argmin, when set, replaces the queue's pick with an independent one:
	// it returns the earliest-idle thread of avail, which becomes the
	// head, and the rest of the queue is not kept. Every chunk then takes
	// advance, which keeps avail current (tests check the queue's dispatch
	// against a linear scan through it).
	argmin func(avail []float64) int
}

// queuedThread is one thread in the run queue and its next-idle time.
type queuedThread struct {
	avail float64
	id    int
}

// before is the dispatch order: earliest-idle first, ties to the lower id.
func (a queuedThread) before(b queuedThread) bool {
	//arcslint:ignore floatcmp exact equality defines the deterministic tie-break order
	if a.avail != b.avail {
		return a.avail < b.avail
	}
	return a.id < b.id
}

// runQueueSlack is the buffer's least size in team sizes: the window
// moves back to the buffer's start at most about once per
// (runQueueSlack-1)·T dispatches.
const runQueueSlack = 4

// nearSlots is how far from the tail insert looks for a thread's place by
// a backward scan before it binary-searches the window instead.
const nearSlots = 16

// init loads the team's next-idle times and sorts the threads.
func (q *runQueue) init(avail []float64) {
	q.avail = avail
	if n := runQueueSlack * len(avail); cap(q.q) < n {
		// Grown as append grows, so a sweep over growing teams
		// reallocates only a few times.
		q.q = make([]queuedThread, max(n, 2*cap(q.q)))
	}
	q.q = q.q[:cap(q.q)]
	q.head, q.tail = 0, 0
	for i, a := range avail {
		q.insert(queuedThread{avail: a, id: i})
	}
	if q.argmin != nil {
		q.pick()
	}
}

// winner returns the earliest-idle thread.
func (q *runQueue) winner() int { return q.q[q.head].id }

// chunkLoop is what dispatch needs to size and cost each chunk of a
// dynamic or guided region.
type chunkLoop struct {
	threads, chunk int
	guided         bool
	// decay stops the loop where guided chunks reach the chunk floor and
	// costs a chunk of sz iterations dS + sz·iterS, one cost for every
	// thread; otherwise it costs dS + w·iterNS[id]·1e-9, w the chunk's
	// weight: sz, or its prefix-sum difference when prefix is not nil.
	decay  bool
	dS     float64
	iterS  float64
	iterNS []float64
	prefix []float64

	chunks    int     // chunks dispatched so far
	dispatchS float64 // dispatch overhead so far: dS per chunk
}

// dispatch hands the chunks of iterations [pos, pos+remaining) one at a
// time to the earliest-idle thread of finish, adding each chunk's cost to
// the thread's busy and finish times, and counts them in l. It returns
// the iterations left: only the decay phase leaves any.
func (q *runQueue) dispatch(busy, finish []float64, l *chunkLoop, pos, remaining int) int {
	q.init(finish)
	s, head, tail := q.q, q.head, q.tail
	seam := q.argmin != nil
	t, chunk, guided, decay := l.threads, l.chunk, l.guided, l.decay
	dS, iterS, iterNS, prefix := l.dS, l.iterS, l.iterNS, l.prefix
	chunks, dispatchS := l.chunks, l.dispatchS
	for remaining > 0 {
		sz := chunk
		if guided {
			if g := (remaining + t - 1) / t; g > sz {
				sz = g
			} else if decay {
				break
			}
		}
		sz = min(sz, remaining)
		w := s[head]
		var c float64
		switch {
		case decay:
			c = dS + float64(sz)*iterS
		case prefix == nil:
			c = dS + float64(sz)*iterNS[w.id]*1e-9
		default:
			c = dS + (prefix[pos+sz]-prefix[pos])*iterNS[w.id]*1e-9
		}
		busy[w.id] += c
		dispatchS += dS
		pos += sz
		remaining -= sz
		chunks++
		w.avail += c
		// The common case: w sorts last. (Alone, w follows its own old
		// time, left in s[tail-1]; appending is then right whatever the
		// test says.)
		if tail < len(s) && s[tail-1].before(w) && !seam {
			s[tail] = w
			head++
			tail++
			continue
		}
		q.head, q.tail = head, tail
		q.advance(c)
		head, tail = q.head, q.tail
	}
	q.head, q.tail = head, tail
	if !seam {
		for _, e := range s[head:tail] {
			finish[e.id] = e.avail
		}
	}
	l.chunks, l.dispatchS = chunks, dispatchS
	return remaining
}

// advance adds c to the winner's next-idle time, records it in avail and
// moves the winner to its place: dispatch's branch for a winner that does
// not sort last, or for every chunk when argmin is set.
func (q *runQueue) advance(c float64) {
	w := q.q[q.head]
	w.avail += c
	q.avail[w.id] = w.avail
	if q.argmin != nil {
		q.pick()
		return
	}
	q.head++
	if q.tail == len(q.q) {
		// Move the window back, keeping a free slot before its head.
		q.tail = copy(q.q[1:], q.q[q.head:q.tail]) + 1
		q.head = 1
	}
	q.insert(w)
}

// pick makes argmin's choice the head.
func (q *runQueue) pick() {
	id := q.argmin(q.avail)
	q.q[q.head] = queuedThread{avail: q.avail[id], id: id}
}

// insert puts e into the window behind every thread that precedes it. The
// window must have room at the tail, or in the slot before its head.
func (q *runQueue) insert(e queuedThread) {
	s, p := q.q, q.tail
	if f := p - nearSlots - 1; f >= q.head && e.before(s[f]) {
		// More than nearSlots threads follow e. Every thread before lo
		// precedes e; s[hi] and every thread behind it follow e.
		lo, hi := q.head, f
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s[mid].before(e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p = hi
		if q.head > 0 && p-q.head < q.tail-p {
			// Fewer threads precede e than follow it: move those back
			// a slot, into the free one before the head.
			q.head--
			copy(s[q.head:p-1], s[q.head+1:p])
			s[p-1] = e
			return
		}
		copy(s[p+1:q.tail+1], s[p:q.tail])
	} else {
		// At most nearSlots threads follow e: shift them up a slot one
		// by one, from the tail.
		for ; p > q.head && e.before(s[p-1]); p-- {
			s[p] = s[p-1]
		}
	}
	s[p] = e
	q.tail++
}

// probeScratch holds the reusable per-Machine buffers behind a simulation,
// so a probe allocates nothing once its buffers have grown to the team
// size. A Machine (and therefore ProbeLoop) is not safe for concurrent
// use; the experiment harness gives every worker goroutine its own
// Machine.
type probeScratch struct {
	missByOcc   []MissRates
	compByOcc   []float64
	memByOcc    []float64
	iterNSByOcc []float64
	iterNS      []float64 // per-thread iteration cost: iterNSByOcc at the thread's occupancy
	finish      []float64
	queue       runQueue
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
// found by bisecting the instant threshold to float precision: about 50
// to 60 rounds of t divisions each, whatever n is. On a short tail that
// costs more than per-chunk dispatch would, but choosing the path by n
// would change results: this path's bits are not the per-chunk
// dispatcher's. busy and finish are updated in place; it reports false
// (leaving them untouched) in degenerate cases the bisection cannot
// resolve, and the caller falls back to the reference dispatcher.
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

// probeTableCap is how many distinct probes of one LoopModel a Machine
// remembers. It is set by Table I's shape, as the offline sweep walks it:
// threads outermost, then the schedules {dynamic, static, guided,
// default}, then the chunks {1, 8, 16, 32, 64, 128, 256, 512, 0}
// innermost. omp.Resolve maps the default schedule to static and 0
// threads to every hardware thread, and ResolveChunk maps chunk 0 to 1
// under dynamic and guided, so 102 of the 252 points alias a point probed
// earlier. The table catches an alias when fewer than probeTableCap
// distinct probes lie between it and its twin:
//
//   - a dynamic or guided chunk-0 point follows its chunk-1 twin after 7
//     distinct probes;
//   - a default-schedule point follows its static twin after at most 16
//     (the static points after its twin and 8 guided), so 17 entries
//     catch it;
//   - the 0-thread block repeats the largest explicit team, and its first
//     point, dynamic chunk 1, follows its twin after 24: 7 dynamic, 9
//     static (the chunk-0 point counts when iters/threads rounds to no
//     Table I chunk) and 8 guided. Every later point of the block is
//     closer to its twin, so 25 entries catch every alias.
//
// At 25 every distinct resolved configuration of a region is simulated
// once per sweep. The entries cost live heap (DESIGN.md §6 gives the
// paper-repro heap at 24, 25 and 40).
const probeTableCap = 25

// probeMemo is one entry of a probeTable: the inputs that decide a
// noise-free probe result, and that result. The floats are compared bit
// for bit.
type probeMemo struct {
	ok      bool   // res holds the result of (cfg, capBits, ghzBits)
	cfg     Config // chunk resolved by ResolveChunk
	capBits uint64 // math.Float64bits of the machine's capW
	ghzBits uint64 // math.Float64bits of the machine's userGHz

	// res is the noise-free result. AvgPowerW, DRAMBytes and DRAMEnergyJ
	// depend on the noise factor and are left unset. Its per-thread slices
	// are the two halves of perThread, the simulation's busy and wait
	// buffers, which the miss that evicts this entry reuses.
	res       ExecResult
	perThread []float64
}

// holds reports whether e is the result of probing under cfg on m now.
func (e *probeMemo) holds(m *Machine, cfg Config) bool {
	return e.ok && e.cfg == cfg &&
		e.capBits == math.Float64bits(m.capW) && e.ghzBits == math.Float64bits(m.userGHz)
}

// result applies the noise factor nf to e's memoised result and returns
// it. The per-thread slices are views of m.perThread, the machine's output
// buffer, which the next probe on m overwrites.
func (m *Machine) result(e *probeMemo, nf float64, iters int) ExecResult {
	r := e.res
	t := len(r.PerThreadBusyS)
	m.perThread = growF(m.perThread, 2*t)
	pt := m.perThread
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
	r.DRAMEnergyJ = m.arch.DRAMStaticW*r.TimeS + m.arch.DRAMEnergyPerByte*r.DRAMBytes
	return r
}

// probeTable is a Machine's record of its last probeTableCap distinct
// probes of one LoopModel, oldest out first. A miss overwrites the oldest
// entry and reuses its per-thread buffer.
type probeTable struct {
	e    []probeMemo // grown on demand, by doubling, to at most probeTableCap entries
	next int         // the slot the next miss fills: the oldest entry once e is full
}

// lookup returns the entry holding the result of probing under cfg on m
// now, or nil. It scans newest first: a repeat of the last probe is the
// commonest hit.
func (t *probeTable) lookup(m *Machine, cfg Config) *probeMemo {
	n := len(t.e)
	for i := 1; i <= n; i++ {
		j := t.next - i
		if j < 0 {
			j += n
		}
		if t.e[j].holds(m, cfg) {
			return &t.e[j]
		}
	}
	return nil
}

// ProbeLoop simulates one execution of lm under cfg without advancing the
// machine clock or energy counter. ExecuteLoop is Probe + Account; tests
// and calibration tools use Probe directly. The result's per-thread
// slices are views of the machine's output buffer, valid until its next
// probe; ProbeLoop allocates nothing once the buffers and the table have
// grown.
//
// The machine remembers its last probeTableCap distinct probes of each
// LoopModel, keyed by cfg with its chunk resolved (so chunk 0 and chunk 1
// under dynamic or guided share an entry), the power cap and the user
// frequency request. A probe that matches an entry reuses its noise-free
// result instead of simulating again; the noise factor is drawn and
// applied on every call, so the result and the noise stream are the same
// as without the table. This is why neither lm nor the machine's Arch may
// be mutated once the machine has probed it. A probe that fails caches
// nothing and evicts nothing.
//
//arcslint:hotpath every search probe runs through here; scratch buffers make it allocation-free
func (m *Machine) ProbeLoop(lm *LoopModel, cfg Config) (ExecResult, error) {
	if cfg.Threads > 0 { // a smaller team fails in simulate; never divide by it
		cfg.Chunk = ResolveChunk(cfg.Sched, cfg.Chunk, lm.Iters, cfg.Threads)
	}
	t := m.probes[lm]
	e := t.lookup(m, cfg)
	if e == nil {
		// Simulate into the oldest entry. simulate fails before it writes
		// the entry, and the table is stored back only after a success, so
		// a failed probe leaves the table as it was.
		if t.next == len(t.e) {
			if len(t.e) == cap(t.e) { // double, but never past probeTableCap
				grown := make([]probeMemo, len(t.e), min(max(2*len(t.e), 1), probeTableCap))
				copy(grown, t.e)
				t.e = grown
			}
			t.e = append(t.e, probeMemo{})
		}
		e = &t.e[t.next]
		if err := m.simulate(lm, cfg, e); err != nil {
			return ExecResult{}, err
		}
		t.next = (t.next + 1) % probeTableCap
		if m.probes == nil {
			m.probes = make(map[*LoopModel]probeTable)
		}
		m.probes[lm] = t
	}
	return m.result(e, m.noiseFactor(), lm.Iters), nil
}

// simulate runs the region model: it dispatches every chunk of lm under
// cfg on the machine as it is now and stores the noise-free result in e.
// Every error is returned before e is touched.
//
//arcslint:hotpath the probe table's miss path; scratch buffers make it allocation-free
func (m *Machine) simulate(lm *LoopModel, cfg Config, e *probeMemo) error {
	if err := lm.Validate(); err != nil {
		return err
	}
	place, err := m.placement(cfg.Threads, cfg.Bind)
	if err != nil {
		return err
	}
	if cfg.Sched != SchedStatic && cfg.Sched != SchedDynamic && cfg.Sched != SchedGuided {
		return fmt.Errorf("sim: unknown schedule %v", cfg.Sched)
	}
	e.ok = false
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
	sc.iterNS = growF(sc.iterNS, t)
	iterNS := sc.iterNS
	for i, k := range place.Occupancy {
		iterNS[i] = iterNSByOcc[k]
	}

	dispatchNS := a.DispatchUS * 1000 * (1 + a.DispatchScale*float64(t-1))
	sc.finish = growF(sc.finish, t)
	finish := sc.finish
	for i := range finish {
		finish[i] = (a.ForkBaseUS + a.ForkStaggerUS*float64(i)) * 1e-6 // fork: threads start staggered
	}
	e.perThread = growF(e.perThread, 2*t)
	busy, waits := e.perThread[:t], e.perThread[t:]
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
				c := float64(iters) * iterNS[tid] * 1e-9
				finish[tid] += c
				busy[tid] += c
			}
			chunksDispatched = nChunks
		} else {
			// Reference path: round-robin pre-assignment, no dispatch
			// cost. Thread tid owns chunks tid, tid+t, …; each thread's
			// times are summed in its chunk order, one thread at a time.
			stride := t * chunk
			for tid := 0; tid < t; tid++ {
				ft, bt, cost := finish[tid], busy[tid], iterNS[tid]
				for pos := tid * chunk; pos < lm.Iters; pos += stride {
					hi := min(pos+chunk, lm.Iters)
					c := (prefix[hi] - prefix[pos]) * cost * 1e-9
					ft += c
					bt += c
				}
				finish[tid], busy[tid] = ft, bt
			}
			chunksDispatched = (lm.Iters + chunk - 1) / chunk
		}
	case SchedDynamic, SchedGuided:
		l := chunkLoop{threads: t, chunk: chunk, guided: cfg.Sched == SchedGuided,
			dS: dispatchNS * 1e-9, iterNS: iterNS, prefix: prefix}
		remaining := lm.Iters
		if uniform && occUniform {
			l.iterS = iterNSByOcc[place.Occupancy[0]] * 1e-9
			if l.guided {
				// Guided decay phase: exponentially shrinking chunks until
				// the floor is reached. O(t log(iters/chunk)) chunks; the
				// constant-size tail below is batched.
				l.decay = true
				remaining = sc.queue.dispatch(busy, finish, &l, 0, remaining)
				l.decay = false
			}
			if remaining > 0 {
				// Batched equal-cost dispatch: all remaining chunks have
				// size chunk (the last one possibly smaller) and identical
				// cost, so the greedy earliest-idle assignment reduces to
				// selecting the n smallest dispatch instants across t
				// arithmetic progressions.
				n := (remaining + chunk - 1) / chunk
				rem := remaining - (n-1)*chunk
				cS := l.dS + float64(chunk)*l.iterS
				cLastS := l.dS + float64(rem)*l.iterS
				if cS > 0 && m.dispatchEqualChunks(busy, finish, n, cS, cLastS) {
					l.chunks += n
					l.dispatchS += float64(n) * l.dS
					remaining = 0
				}
			}
		}
		if remaining > 0 {
			// Reference path: every chunk through the run queue.
			sc.queue.dispatch(busy, finish, &l, lm.Iters-remaining, remaining)
		}
		chunksDispatched, totalDispatchS = l.chunks, l.dispatchS
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
