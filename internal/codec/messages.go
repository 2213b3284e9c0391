package codec

import (
	"fmt"

	arcs "arcs/internal/core"
	"arcs/internal/ompt"
)

// The serving records. Each is declared once, for both encodings, here
// (Entry in internal/core, aliased here): the JSON tags are the arcsd
// HTTP bodies and the Append*/Decode* pairs below are the binary
// frames. codec depends only on internal/core (and ompt through it), so
// the store, server, fleet and client packages all name these types
// directly and no import cycle forms.

// Entry is one stored record: a tuned configuration, the performance
// that earned it, and a per-key monotonic version. It is the WAL
// record, the /v1/merge and /v1/dump element, and a snapshot row; the
// record itself is declared once, as arcs.Entry, which every History's
// table holds.
type Entry = arcs.Entry

// Report is one ingested result: a POST /v1/reports record.
type Report struct {
	Key  arcs.HistoryKey   `json:"key"`
	Cfg  arcs.ConfigValues `json:"config"`
	Perf float64           `json:"perf"`
}

// ConfigAnswer is the GET /v1/config response body.
type ConfigAnswer struct {
	Key     arcs.HistoryKey   `json:"key"`
	Cfg     arcs.ConfigValues `json:"config"`
	Perf    float64           `json:"perf"`
	Version uint64            `json:"version"`
	// Source is how the answer was found: "exact", "fallback" (nearest
	// cap) or "searched" (server-side search just ran).
	Source string `json:"source"`
	// CapDistance is the |Δcap| in watts for fallback answers (0 exact).
	CapDistance float64 `json:"cap_distance,omitempty"`
}

// Ack is the /v1/reports and /v1/merge response body.
type Ack struct {
	Saved    uint64 `json:"saved"`
	StoreLen uint64 `json:"store_len"`
}

// Field numbers. Append-only: adding a field means taking the next
// number; removing one means retiring its number forever. Wire types
// may never change for a live number.
const (
	keyApp      = 1 // string
	keyWorkload = 2 // string
	keyCapW     = 3 // fixed8
	keyRegion   = 4 // string

	cfgThreads  = 1 // varint
	cfgSchedule = 2 // varint
	cfgChunk    = 3 // varint
	cfgFreqGHz  = 4 // fixed8
	cfgBind     = 5 // varint

	entKey     = 1 // bytes (HistoryKey message)
	entCfg     = 2 // bytes (ConfigValues message)
	entPerf    = 3 // fixed8
	entVersion = 4 // varint

	ansKey     = 1 // bytes
	ansCfg     = 2 // bytes
	ansPerf    = 3 // fixed8
	ansVersion = 4 // varint
	ansSource  = 5 // string
	ansCapDist = 6 // fixed8

	ackSaved    = 1 // varint
	ackStoreLen = 2 // varint
)

// --- nested message encoders -----------------------------------------

// appendKey appends the tagged fields of a HistoryKey (no framing).
//
//arcslint:hotpath key encode helper on every entry/report append
func appendKey(dst []byte, k *arcs.HistoryKey) []byte {
	dst = appendStringField(dst, keyApp, k.App)
	dst = appendStringField(dst, keyWorkload, k.Workload)
	dst = appendFloatField(dst, keyCapW, k.CapW)
	return appendStringField(dst, keyRegion, k.Region)
}

// appendCfg appends the tagged fields of a ConfigValues (no framing).
//
//arcslint:hotpath config encode helper on every entry/report append
func appendCfg(dst []byte, c *arcs.ConfigValues) []byte {
	dst = appendUintField(dst, cfgThreads, uint64(c.Threads))
	dst = appendUintField(dst, cfgSchedule, uint64(c.Schedule))
	dst = appendUintField(dst, cfgChunk, uint64(c.Chunk))
	dst = appendFloatField(dst, cfgFreqGHz, c.FreqGHz)
	return appendUintField(dst, cfgBind, uint64(c.Bind))
}

// appendKeyField appends a HistoryKey as a length-delimited sub-message
// of the surrounding message, using scratch to stage the nested bytes.
//
//arcslint:hotpath nested key field reuses the encoder scratch buffer
func appendKeyField(dst []byte, num int, k *arcs.HistoryKey, scratch *[]byte) []byte {
	*scratch = appendKey((*scratch)[:0], k)
	return appendBytesField(dst, num, *scratch)
}

//arcslint:hotpath nested config field reuses the encoder scratch buffer
func appendCfgField(dst []byte, num int, c *arcs.ConfigValues, scratch *[]byte) []byte {
	*scratch = appendCfg((*scratch)[:0], c)
	return appendBytesField(dst, num, *scratch)
}

// --- Encoder ----------------------------------------------------------

// Encoder holds the scratch buffer nested-message encoding needs.
// The zero value is ready to use; reusing one across calls makes every
// Append* method allocation-free once the scratch has grown. Not safe
// for concurrent use — pool Encoders, don't share them.
type Encoder struct {
	scratch  []byte // nested-message staging
	scratch2 []byte // per-element staging inside batch encodes
	payload  []byte // whole-message staging for framed appends

	// Columnar string-table staging, reused across AppendSnapshot calls
	// so steady-state snapshot and transfer encoding allocates nothing.
	strIndex map[string]uint64
	strTable []string
}

// AppendEntry appends e as one framed KindEntry record (the WAL and
// dump-stream unit).
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkCodecEncodeEntry baseline
func (enc *Encoder) AppendEntry(dst []byte, e *Entry) []byte {
	p := enc.payload[:0]
	p = appendKeyField(p, entKey, &e.Key, &enc.scratch)
	p = appendCfgField(p, entCfg, &e.Cfg, &enc.scratch)
	p = appendFloatField(p, entPerf, e.Perf)
	p = appendUintField(p, entVersion, e.Version)
	enc.payload = p
	return AppendFrame(dst, KindEntry, p)
}

// appendReportPayload appends r's tagged fields (entry numbering: a
// Report is an Entry without a version, and shares its field numbers).
//
//arcslint:hotpath payload body of each batched report
func (enc *Encoder) appendReportPayload(dst []byte, r *Report) []byte {
	dst = appendKeyField(dst, entKey, &r.Key, &enc.scratch)
	dst = appendCfgField(dst, entCfg, &r.Cfg, &enc.scratch)
	return appendFloatField(dst, entPerf, r.Perf)
}

// AppendReportBatch appends reports as one framed KindReportBatch
// message: uvarint count, then each report length-prefixed.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkCodecEncodeReportBatch baseline
func (enc *Encoder) AppendReportBatch(dst []byte, reports []Report) []byte {
	p := enc.payload[:0]
	p = AppendUvarint(p, uint64(len(reports)))
	for i := range reports {
		// The element length is a varint, so each report is staged in a
		// scratch buffer before its size is known.
		enc.scratch2 = enc.appendReportPayload(enc.scratch2[:0], &reports[i])
		p = AppendUvarint(p, uint64(len(enc.scratch2)))
		p = append(p, enc.scratch2...)
	}
	enc.payload = p
	return AppendFrame(dst, KindReportBatch, p)
}

// AppendConfigAnswer appends a as one framed KindConfigAnswer message.
func (enc *Encoder) AppendConfigAnswer(dst []byte, a *ConfigAnswer) []byte {
	p := enc.payload[:0]
	p = appendKeyField(p, ansKey, &a.Key, &enc.scratch)
	p = appendCfgField(p, ansCfg, &a.Cfg, &enc.scratch)
	p = appendFloatField(p, ansPerf, a.Perf)
	p = appendUintField(p, ansVersion, a.Version)
	p = appendStringField(p, ansSource, a.Source)
	p = appendFloatField(p, ansCapDist, a.CapDistance)
	enc.payload = p
	return AppendFrame(dst, KindConfigAnswer, p)
}

// AppendAck appends a as one framed KindAck message.
func (enc *Encoder) AppendAck(dst []byte, a *Ack) []byte {
	p := enc.payload[:0]
	p = appendUintField(p, ackSaved, a.Saved)
	p = appendUintField(p, ackStoreLen, a.StoreLen)
	enc.payload = p
	return AppendFrame(dst, KindAck, p)
}

// --- Decoder ----------------------------------------------------------

// Decoder decodes framed messages. It interns strings: the app,
// workload, region and source names on a serving hot path repeat
// endlessly, so after warm-up a Decoder allocates nothing. Not safe
// for concurrent use — pool Decoders, don't share them.
type Decoder struct {
	intern map[string]string
	rep    Report // batch-element scratch; reused so it never escapes
}

// str returns b as a string, reusing a previously interned copy when
// one exists (the map lookup with a []byte key does not allocate).
//
//arcslint:hotpath interning lookup on the decode fast path
func (d *Decoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if len(d.intern) >= maxInterned {
		// A hostile peer could grow the table without bound; beyond the
		// cap, fall back to plain allocation.
		return string(b)
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// maxInterned bounds the intern table. Real deployments see hundreds of
// distinct names, not tens of thousands.
const maxInterned = 1 << 14

// decodeKey parses a HistoryKey sub-message.
//
//arcslint:hotpath key decode on every entry/report
func (d *Decoder) decodeKey(b []byte, k *arcs.HistoryKey) error {
	*k = arcs.HistoryKey{}
	r := fieldReader{buf: b}
	for {
		num, wt, val, done, err := r.next()
		if done || err != nil {
			return err
		}
		switch {
		case num == keyApp && wt == wtBytes:
			k.App = d.str(val)
		case num == keyWorkload && wt == wtBytes:
			k.Workload = d.str(val)
		case num == keyCapW && wt == wtFixed8:
			k.CapW = floatVal(val)
		case num == keyRegion && wt == wtBytes:
			k.Region = d.str(val)
		}
	}
}

// decodeCfg parses a ConfigValues sub-message.
//
//arcslint:hotpath config decode on every entry/report
func (d *Decoder) decodeCfg(b []byte, c *arcs.ConfigValues) error {
	*c = arcs.ConfigValues{}
	r := fieldReader{buf: b}
	for {
		num, wt, val, done, err := r.next()
		if done || err != nil {
			return err
		}
		switch {
		case num == cfgThreads && wt == wtVarint:
			c.Threads = int(uintVal(val))
		case num == cfgSchedule && wt == wtVarint:
			c.Schedule = ompt.ScheduleKind(uintVal(val))
		case num == cfgChunk && wt == wtVarint:
			c.Chunk = int(uintVal(val))
		case num == cfgFreqGHz && wt == wtFixed8:
			c.FreqGHz = floatVal(val)
		case num == cfgBind && wt == wtVarint:
			c.Bind = ompt.BindKind(uintVal(val))
		}
	}
}

// DecodeEntry parses a KindEntry frame payload into e.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkCodecDecodeEntry baseline
func (d *Decoder) DecodeEntry(payload []byte, e *Entry) error {
	*e = Entry{}
	r := fieldReader{buf: payload}
	for {
		num, wt, val, done, err := r.next()
		if done || err != nil {
			return err
		}
		switch {
		case num == entKey && wt == wtBytes:
			if err := d.decodeKey(val, &e.Key); err != nil {
				return err
			}
		case num == entCfg && wt == wtBytes:
			if err := d.decodeCfg(val, &e.Cfg); err != nil {
				return err
			}
		case num == entPerf && wt == wtFixed8:
			e.Perf = floatVal(val)
		case num == entVersion && wt == wtVarint:
			e.Version = uintVal(val)
		}
	}
}

// DecodeReport parses one report-batch element into rep.
//
//arcslint:hotpath report decode fast path
func (d *Decoder) DecodeReport(payload []byte, rep *Report) error {
	var e Entry
	if err := d.DecodeEntry(payload, &e); err != nil {
		return err
	}
	rep.Key, rep.Cfg, rep.Perf = e.Key, e.Cfg, e.Perf
	return nil
}

// DecodeReportBatch parses a KindReportBatch frame payload, calling f
// for each report in order. f's Report is reused across calls.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkCodecDecodeReportBatch baseline
func (d *Decoder) DecodeReportBatch(payload []byte, f func(*Report) error) error {
	count, n := Uvarint(payload)
	if n == 0 {
		return ErrMalformed
	}
	if count > maxDecodeCount || count > uint64(len(payload)) {
		return fmt.Errorf("%w: batch count %d", ErrMalformed, count)
	}
	pos := n
	for i := uint64(0); i < count; i++ {
		l, ln := Uvarint(payload[pos:])
		if ln == 0 {
			return ErrTruncated
		}
		pos += ln
		if uint64(len(payload)-pos) < l {
			return ErrTruncated
		}
		if err := d.DecodeReport(payload[pos:pos+int(l)], &d.rep); err != nil {
			return err
		}
		pos += int(l)
		if err := f(&d.rep); err != nil {
			return err
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes after batch", ErrMalformed, len(payload)-pos)
	}
	return nil
}

// DecodeConfigAnswer parses a KindConfigAnswer frame payload into a.
func (d *Decoder) DecodeConfigAnswer(payload []byte, a *ConfigAnswer) error {
	*a = ConfigAnswer{}
	r := fieldReader{buf: payload}
	for {
		num, wt, val, done, err := r.next()
		if done || err != nil {
			return err
		}
		switch {
		case num == ansKey && wt == wtBytes:
			if err := d.decodeKey(val, &a.Key); err != nil {
				return err
			}
		case num == ansCfg && wt == wtBytes:
			if err := d.decodeCfg(val, &a.Cfg); err != nil {
				return err
			}
		case num == ansPerf && wt == wtFixed8:
			a.Perf = floatVal(val)
		case num == ansVersion && wt == wtVarint:
			a.Version = uintVal(val)
		case num == ansSource && wt == wtBytes:
			a.Source = d.str(val)
		case num == ansCapDist && wt == wtFixed8:
			a.CapDistance = floatVal(val)
		}
	}
}

// DecodeAck parses a KindAck frame payload into a.
func (d *Decoder) DecodeAck(payload []byte, a *Ack) error {
	*a = Ack{}
	r := fieldReader{buf: payload}
	for {
		num, wt, val, done, err := r.next()
		if done || err != nil {
			return err
		}
		switch {
		case num == ackSaved && wt == wtVarint:
			a.Saved = uintVal(val)
		case num == ackStoreLen && wt == wtVarint:
			a.StoreLen = uintVal(val)
		}
	}
}
