package server

// arcsd's /metrics. Each series is declared once, as a struct field
// tagged `metric:"<name>,<type>" help:"<text>"` beside the value it
// reads. The snapshot structs /healthz already serves (store.Health,
// fleet.Stats, FleetHealth) declare theirs; the
// server's own counters are serverSeries and fleetSeries below.
// writeMetrics renders every tagged field of its sources in one loop,
// sorted by family name, so adding a series is adding one field.

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// samples renders a labelled family's sample lines itself; every other
// tagged field is a single unlabelled sample.
type samples func(b []byte, name string) []byte

// serverSeries are the series every arcsd serves.
type serverSeries struct {
	Requests        samples       `metric:"arcsd_requests_total,counter" help:"HTTP requests by endpoint and status code."`
	Latency         samples       `metric:"arcsd_request_seconds,summary" help:"Cumulative request latency by endpoint."`
	Hits            atomic.Uint64 `metric:"arcsd_lookup_hits_total,counter" help:"Exact-key lookup hits."`
	Fallbacks       atomic.Uint64 `metric:"arcsd_lookup_fallbacks_total,counter" help:"Lookups answered by the nearest-cap fallback."`
	Misses          atomic.Uint64 `metric:"arcsd_lookup_misses_total,counter" help:"Lookups with no answer at all."`
	Searches        atomic.Uint64 `metric:"arcsd_searches_total,counter" help:"Server-side searches executed."`
	SearchDeduped   atomic.Uint64 `metric:"arcsd_search_dedup_total,counter" help:"Searches avoided by single-flight deduplication."`
	SearchErrors    atomic.Uint64 `metric:"arcsd_search_errors_total,counter" help:"Server-side searches that failed."`
	SearchShed      atomic.Uint64 `metric:"arcsd_search_shed_total,counter" help:"Search requests shed by admission control (429)."`
	SearchPanics    atomic.Uint64 `metric:"arcsd_search_panics_total,counter" help:"Searcher panics contained by the recovery wrapper."`
	HandlerPanics   atomic.Uint64 `metric:"arcsd_handler_panics_total,counter" help:"HTTP handler panics converted to 500s."`
	Reported        atomic.Uint64 `metric:"arcsd_reported_entries_total,counter" help:"Entries ingested through /v1/reports."`
	NeighborsServed atomic.Uint64 `metric:"arcsd_neighbors_served_total,counter" help:"Neighbour records served through /v1/neighbors."`
	Merged          atomic.Uint64 `metric:"arcsd_merged_entries_total,counter" help:"Entries accepted through /v1/merge replication."`
}

// fleetSeries are the server's own series that only a fleet member
// serves.
type fleetSeries struct {
	LookupForwards         atomic.Uint64 `metric:"arcsd_fleet_lookup_forwards_total,counter" help:"Config lookups answered by forwarding to an owning peer."`
	MembershipApplied      atomic.Uint64 `metric:"arcsd_fleet_membership_applied_total,counter" help:"Pushed member lists that superseded the local one."`
	TransferredOut         atomic.Uint64 `metric:"arcsd_fleet_transferred_out_total,counter" help:"Entries served through /v1/transfer."`
	TransferEpochConflicts atomic.Uint64 `metric:"arcsd_fleet_transfer_epoch_conflicts_total,counter" help:"Transfer requests rejected for naming a stale epoch."`
	DrainErrors            atomic.Uint64 `metric:"arcsd_fleet_drain_errors_total,counter" help:"Decommission drains that completed partially."`
}

// metrics holds the server's own series and the per-endpoint request
// table behind the two labelled ones.
type metrics struct {
	serverSeries
	fleetSeries
	endpoints []*endpoint // sorted by name; filled by New before serving
}

// endpoint is one instrumented endpoint's request series. instrument
// resolves it once, at registration, so observing a request takes no
// lock and allocates nothing.
type endpoint struct {
	name   string
	status [16]statusCount // claimed in first-seen order; code 0 is free
	nanos  atomic.Int64    // summed latency
}

// statusCount counts the requests answered with one status code.
type statusCount struct {
	code atomic.Uint32
	n    atomic.Uint64
}

func newMetrics() *metrics {
	m := &metrics{}
	m.Requests = m.appendRequests
	m.Latency = m.appendLatency
	return m
}

// endpoint registers a request series for one endpoint name.
func (m *metrics) endpoint(name string) *endpoint {
	ep := &endpoint{name: name}
	m.endpoints = append(m.endpoints, ep)
	slices.SortFunc(m.endpoints, func(a, b *endpoint) int { return strings.Compare(a.name, b.name) })
	return ep
}

// observe counts one request under its status, claiming the next free
// slot the first time a status is seen. Slots are claimed in order and
// never released, so each status holds exactly one. Sixteen cover every
// status a handler writes (/v1/config, with nine, writes the most);
// past them a request would go uncounted.
//
//arcslint:hotpath once per served request
func (ep *endpoint) observe(code int, d time.Duration) {
	c := uint32(code)
	for i := range ep.status {
		s := &ep.status[i]
		if s.code.Load() == 0 {
			s.code.CompareAndSwap(0, c)
		}
		if s.code.Load() == c {
			s.n.Add(1)
			ep.nanos.Add(int64(d))
			return
		}
	}
}

func (m *metrics) appendRequests(b []byte, name string) []byte {
	for _, ep := range m.endpoints {
		var rows [][2]uint64 // status code, count
		for i := range ep.status {
			if n := ep.status[i].n.Load(); n > 0 {
				rows = append(rows, [2]uint64{uint64(ep.status[i].code.Load()), n})
			}
		}
		slices.SortFunc(rows, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
		for _, r := range rows {
			b = fmt.Appendf(b, "%s{endpoint=%q,code=\"%d\"} %d\n", name, ep.name, r[0], r[1])
		}
	}
	return b
}

func (m *metrics) appendLatency(b []byte, name string) []byte {
	for _, ep := range m.endpoints {
		var n uint64
		for i := range ep.status {
			n += ep.status[i].n.Load()
		}
		if n > 0 {
			sum := time.Duration(ep.nanos.Load()).Seconds()
			b = fmt.Appendf(b, "%s_sum{endpoint=%q} %g\n%s_count{endpoint=%q} %d\n", name, ep.name, sum, name, ep.name, n)
		}
	}
	return b
}

// family is one declared series: a tagged field and the value it holds.
type family struct {
	name, typ, help string
	val             reflect.Value
}

// writeMetrics renders the Prometheus text exposition format for every
// metric-tagged field of srcs, which are pointers to structs: one
// family per field, sorted by name so scrapes and tests are stable.
func writeMetrics(w io.Writer, srcs ...any) error {
	var fams []family
	for _, src := range srcs {
		v := reflect.ValueOf(src).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if decl, ok := f.Tag.Lookup("metric"); ok {
				name, typ, _ := strings.Cut(decl, ",")
				fams = append(fams, family{name, typ, f.Tag.Get("help"), v.Field(i)})
			}
		}
	}
	slices.SortFunc(fams, func(a, b family) int { return strings.Compare(a.name, b.name) })
	var b []byte
	for _, f := range fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch x := f.val.Addr().Interface().(type) {
		case *samples:
			b = (*x)(b, f.name)
		case *atomic.Uint64:
			b = fmt.Appendf(b, "%s %d\n", f.name, x.Load())
		case *bool:
			if *x {
				b = fmt.Appendf(b, "%s 1\n", f.name)
			} else {
				b = fmt.Appendf(b, "%s 0\n", f.name)
			}
		default: // a plain integer or float snapshot field
			b = fmt.Appendf(b, "%s %v\n", f.name, f.val.Interface())
		}
	}
	_, err := w.Write(b)
	return err
}
