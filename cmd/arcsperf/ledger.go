package main

import (
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"arcs/internal/apex"
	"arcs/internal/cli"
	"arcs/internal/codec"
	arcs "arcs/internal/core"
	"arcs/internal/omp"
	"arcs/internal/ompt"
	"arcs/internal/sim"
	"arcs/internal/store"
	"arcs/internal/storeclient"
)

// spanLayers splits a traced pass into per-layer numbers. Op traces are
// those rooted at an op.* span, one per measured operation; layer shares
// are each layer's self time summed over op traces, divided by the summed
// op time. Store filesystem spans and the fleet's background rounds are
// roots of their own and are charged per operation or per second of
// wall time.
func spanLayers(spans []span, ops int, wall time.Duration) map[string]float64 {
	self := selfTimes(spans)
	opTraces := make(map[uint64]bool)
	var opTime float64
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			opTraces[s.Trace] = true
			opTime += float64(s.End - s.Start)
		}
	}
	var (
		selfBy                                 = make(map[string]float64)
		serverReqs, peerRPCs, peerB, clientB   float64
		forwarded                              = make(map[uint64]bool)
		walB, snapB, renames, fsTime, tickTime float64
	)
	for _, s := range spans {
		d := float64(s.End - s.Start)
		if opTraces[s.Trace] {
			layer := s.Name
			switch {
			case strings.HasPrefix(s.Name, "op."):
				layer = "storeclient"
			case strings.HasPrefix(s.Name, "server."):
				layer = "server"
				serverReqs++
			case s.Name == "fleet.peer":
				peerRPCs++
				peerB += float64(s.Bytes)
				forwarded[s.Trace] = true
			case s.Name == "http.client":
				clientB += float64(s.Bytes)
			}
			selfBy[layer] += float64(self[s.ID])
			continue
		}
		switch s.Name {
		case "store.wal_write":
			walB += float64(s.Bytes)
			fsTime += d
		case "store.snapshot_write":
			snapB += float64(s.Bytes)
			fsTime += d
		case "store.rename":
			renames++
			fsTime += d
		case "store.fsync":
			fsTime += d
		case "fleet.anti-entropy", "fleet.heartbeat":
			tickTime += d
		}
	}
	n, w := float64(ops), float64(wall)
	return map[string]float64{
		"storeclient.self_share":       ratio(selfBy["storeclient"], opTime),
		"http.transport_share":         ratio(selfBy["http.client"], opTime),
		"server.self_share":            ratio(selfBy["server"], opTime),
		"fleet.peer_share":             ratio(selfBy["fleet.peer"], opTime),
		"search.self_share":            ratio(selfBy["search.run"], opTime),
		"store.neighbors_share":        ratio(selfBy["search.neighbors"], opTime),
		"server.requests_per_op":       ratio(serverReqs, n),
		"fleet.forward_share":          ratio(float64(len(forwarded)), n),
		"fleet.peer_rpcs_per_op":       ratio(peerRPCs, n),
		"fleet.peer_bytes_per_op":      ratio(peerB, n),
		"storeclient.bytes_per_op":     ratio(clientB, n),
		"fleet.tick_busy_share":        ratio(tickTime, w),
		"store.wal_bytes_per_op":       ratio(walB, n),
		"store.snapshot_bytes_per_op":  ratio(snapB, n),
		"store.compactions_per_1k_ops": ratio(1000*renames, n),
		"store.fs_busy_share":          ratio(fsTime, w),
	}
}

// counterLayers turns a workload's counter deltas over the traced pass
// into per-layer numbers.
func counterLayers(before, after map[string]float64, ops int) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	out := map[string]float64{
		"fleet.replicated_per_op":          ratio(d("fleet.replicated"), float64(ops)),
		"search.probes_per_search":         ratio(d("search.probes"), d("search.searches")),
		"evalcache.hit_share":              ratio(d("search.hits"), d("search.hits")+d("search.probes")),
		"search.neighbor_scans_per_search": ratio(d("search.scans"), d("search.searches")),
		"search.tuned_vs_default":          0,
		"bench.pool_busy_share":            ratio(d("bench.busy_s"), d("bench.suite_s")*paperJobs),
	}
	if n := d("search.ratios"); n > 0 {
		out["search.tuned_vs_default"] = math.Exp(d("search.log_ratio") / n)
	}
	return out
}

// runtimeLayers charges the Go runtime's work in an untraced pass to its
// operations.
func runtimeLayers(a, b runtimeSample, ops int) map[string]float64 {
	return map[string]float64{
		"runtime.allocs_per_op":      ratio(float64(b.mallocs-a.mallocs), float64(ops)),
		"runtime.alloc_bytes_per_op": ratio(float64(b.bytes-a.bytes), float64(ops)),
		"runtime.gc_cpu_share":       ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU),
	}
}

// medianTimed runs f reps times and returns the median duration of one
// call, where each timing covers calls consecutive calls.
func medianTimed(reps, calls int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			f()
		}
		xs[i] = float64(time.Since(t0)) / float64(calls)
	}
	return time.Duration(median(xs))
}

// replayLayers times direct calls into the store and the codec on the
// serving workloads' records: a private store of the preload's size and
// arcsd's snapshot cadence, and the messages lookups and reports carry.
func replayLayers(dir string, ks *keySpace, seed int64, scale float64) (map[string]float64, error) {
	sdir, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sdir)
	st, err := store.Open(sdir, store.Options{SnapshotEvery: store.DefaultSnapshotEvery})
	if err != nil {
		return nil, err
	}
	for _, e := range ks.entries {
		st.Save(e.Key, e.Cfg, e.Perf)
	}
	r := rand.New(rand.NewSource(seed))
	pick := func() storeclient.Report { return ks.entries[r.Intn(len(ks.entries))] }
	timeEach := func(n int, f func()) []time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			t0 := time.Now()
			f()
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	n := max(100, int(20000*scale))
	get := timeEach(n, func() { st.Get(pick().Key) })
	nearest := timeEach(max(20, n/40), func() {
		k := pick().Key
		k.CapW += nearestOffsetW
		st.GetNearest(k)
	})
	improve := false
	save := timeEach(max(100, n/5), func() {
		e := pick()
		if improve = !improve; improve {
			e.Perf *= 0.999
		} else {
			e.Perf *= 1.01
		}
		st.Save(e.Key, e.Cfg, e.Perf)
	})
	if err := st.Err(); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	var enc codec.Encoder
	var dec codec.Decoder
	e := ks.entries[0]
	ans := codec.ConfigAnswer{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf, Version: 1, Source: "exact"}
	var buf []byte
	ansEnc := medianTimed(7, 20000, func() { buf = enc.AppendConfigAnswer(buf[:0], &ans) })
	_, payload, _, err := codec.Frame(buf)
	if err != nil {
		return nil, err
	}
	var out codec.ConfigAnswer
	ansDec := medianTimed(7, 20000, func() { err = dec.DecodeConfigAnswer(payload, &out) })
	if err != nil {
		return nil, err
	}
	reports := make([]codec.Report, ingestBatch)
	for i := range reports {
		p := pick()
		reports[i] = codec.Report{Key: p.Key, Cfg: p.Cfg, Perf: p.Perf}
	}
	var bbuf []byte
	batchEnc := medianTimed(7, 2000, func() { bbuf = enc.AppendReportBatch(bbuf[:0], reports) })
	_, bpayload, _, err := codec.Frame(bbuf)
	if err != nil {
		return nil, err
	}
	batchDec := medianTimed(7, 2000, func() {
		err = dec.DecodeReportBatch(bpayload, func(*codec.Report) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	ces := make([]codec.Entry, len(ks.entries))
	for i, e := range ks.entries {
		ces[i] = codec.Entry{Key: e.Key, Cfg: e.Cfg, Perf: e.Perf, Version: 1}
	}
	var sbuf []byte
	snapEnc := medianTimed(5, 1, func() { sbuf = enc.AppendSnapshot(sbuf[:0], ces) })

	return map[string]float64{
		"store.get_us_p50":         us(percentile(get, 0.5)),
		"store.nearest_us_p50":     us(percentile(nearest, 0.5)),
		"store.save_us_p50":        us(percentile(save, 0.5)),
		"store.save_us_p99":        us(percentile(save, 0.99)),
		"codec.answer_encode_ns":   float64(ansEnc),
		"codec.answer_decode_ns":   float64(ansDec),
		"codec.batch_encode_us":    us(batchEnc),
		"codec.batch_decode_us":    us(batchDec),
		"codec.snapshot_encode_ms": ms(snapEnc),
	}, nil
}

// eventCounter is an OMPT tool that counts every callback it receives.
type eventCounter struct{ n int }

func (c *eventCounter) ParallelBegin(ompt.RegionInfo, ompt.ControlPlane) { c.n++ }
func (c *eventCounter) ParallelEnd(ompt.RegionInfo, ompt.Metrics)        { c.n++ }
func (c *eventCounter) Event(ompt.RegionInfo, ompt.Event, int, float64)  { c.n++ }

// tunerLayers times one ARCS-Online run (SP class B on Crill at 70 W)
// three ways from the public API, as §V-C splits ARCS's overhead: the
// bare application, with the APEX tool attached, and with ARCS tuning
// online through APEX. Differences of medians give each layer's cost.
func tunerLayers(reps int) (map[string]float64, error) {
	app, err := cli.BuildApp("SP", "B")
	if err != nil {
		return nil, err
	}
	arch := sim.Crill()
	const capW = 70
	run := func(withApex, withARCS bool, tool ompt.Tool) (time.Duration, int, error) {
		m, err := sim.NewMachine(arch)
		if err != nil {
			return 0, 0, err
		}
		if err := m.SetPowerCap(capW); err != nil {
			return 0, 0, err
		}
		rt := omp.NewRuntime(m)
		if tool != nil {
			rt.RegisterTool(tool)
		}
		var tuner *arcs.Tuner
		if withApex {
			apx := apex.New()
			apx.SetPowerSource(m)
			rt.RegisterTool(apex.NewTool(apx))
			if withARCS {
				if tuner, err = arcs.New(apx, arch, arcs.Options{Strategy: arcs.StrategyOnline}); err != nil {
					return 0, 0, err
				}
			}
		}
		t0 := time.Now()
		if _, err := app.Run(rt); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		evals := 0
		if tuner != nil {
			if err := tuner.Finish(); err != nil {
				return 0, 0, err
			}
			for _, r := range tuner.Report() {
				evals += r.Evals
			}
		}
		return d, evals, nil
	}
	var bare, withApex, withARCS []float64
	for i := 0; i < reps; i++ {
		for _, v := range []struct {
			apex, arcs bool
			into       *[]float64
		}{{false, false, &bare}, {true, false, &withApex}, {true, true, &withARCS}} {
			d, _, err := run(v.apex, v.arcs, nil)
			if err != nil {
				return nil, err
			}
			*v.into = append(*v.into, ms(d))
		}
	}
	// Counting events is its own run, so the extra tool does not weigh
	// on the timed ones.
	var events eventCounter
	_, evals, err := run(true, true, &events)
	if err != nil {
		return nil, err
	}
	b, a, t := median(bare), median(withApex), median(withARCS)
	return map[string]float64{
		"sim.app_run_ms":         b,
		"apex.overhead_ms":       a - b,
		"core.tuner_overhead_ms": t - a,
		"ompt.events_per_run":    float64(events.n),
		"harmony.evals_per_run":  float64(evals),
	}, nil
}
