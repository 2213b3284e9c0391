package codec

import (
	"fmt"

	"arcs/internal/ompt"
)

// Columnar entry-set format: one KindSnapshot frame whose payload is
//
//	uvarint formatVersion (currently 1)
//	uvarint stringTableLen, then that many (uvarint len, bytes) strings
//	uvarint rowCount
//	column app:      rowCount uvarint string-table indices
//	column workload: rowCount uvarint string-table indices
//	column region:   rowCount uvarint string-table indices
//	column capW:     rowCount fixed8 floats
//	column threads:  rowCount uvarints
//	column schedule: rowCount uvarints
//	column chunk:    rowCount uvarints
//	column freqGHz:  rowCount fixed8 floats
//	column bind:     rowCount uvarints
//	column perf:     rowCount fixed8 floats
//	column version:  rowCount uvarints
//
// The same frame carries the store's snapshot file (the whole table)
// and a /v1/transfer response (one shard range owned by the joining
// node). Columns beat rows here twice over: the string table collapses
// the heavy app/workload/region repetition to one copy plus small
// indices, and same-typed runs decode in tight loops with no per-row
// tag bytes. The format version is bumped when columns are added;
// snapshots are regenerated wholesale at every compaction and
// transfers are read at once, so no cross-version skew can accumulate
// (field-level evolution is the WAL's and the wire's job).
const snapshotVersion = 1

// AppendSnapshot appends an entry set as one framed columnar snapshot.
// Entries should be in a deterministic order (the store and the
// transfer endpoint pass them in entry order, arcs.CompareEntryKeys).
// The string
// table is staged in buffers the Encoder reuses, so steady-state
// encoding allocates nothing.
//
//arcslint:hotpath backs the 0-allocs/op BenchmarkCodecEncodeSnapshot baseline
func (enc *Encoder) AppendSnapshot(dst []byte, entries []Entry) []byte {
	p := enc.payload[:0]
	p = AppendUvarint(p, snapshotVersion)

	// String table, first-seen order (deterministic given input order).
	if enc.strIndex == nil {
		enc.strIndex = make(map[string]uint64)
	}
	clear(enc.strIndex)
	enc.strTable = enc.strTable[:0]
	for i := range entries {
		enc.intern(entries[i].Key.App)
		enc.intern(entries[i].Key.Workload)
		enc.intern(entries[i].Key.Region)
	}
	index, table := enc.strIndex, enc.strTable
	p = AppendUvarint(p, uint64(len(table)))
	for _, s := range table {
		p = AppendUvarint(p, uint64(len(s)))
		p = append(p, s...)
	}

	p = AppendUvarint(p, uint64(len(entries)))
	for i := range entries {
		p = AppendUvarint(p, index[entries[i].Key.App])
	}
	for i := range entries {
		p = AppendUvarint(p, index[entries[i].Key.Workload])
	}
	for i := range entries {
		p = AppendUvarint(p, index[entries[i].Key.Region])
	}
	for i := range entries {
		p = appendFloat(p, entries[i].Key.CapW)
	}
	for i := range entries {
		p = AppendUvarint(p, uint64(entries[i].Cfg.Threads))
	}
	for i := range entries {
		p = AppendUvarint(p, uint64(entries[i].Cfg.Schedule))
	}
	for i := range entries {
		p = AppendUvarint(p, uint64(entries[i].Cfg.Chunk))
	}
	for i := range entries {
		p = appendFloat(p, entries[i].Cfg.FreqGHz)
	}
	for i := range entries {
		p = AppendUvarint(p, uint64(entries[i].Cfg.Bind))
	}
	for i := range entries {
		p = appendFloat(p, entries[i].Perf)
	}
	for i := range entries {
		p = AppendUvarint(p, entries[i].Version)
	}
	enc.payload = p
	return AppendFrame(dst, KindSnapshot, p)
}

// intern stages s into the encoder's reusable string table, returning
// its index.
//
//arcslint:hotpath string-table staging under the snapshot encode loop
func (enc *Encoder) intern(s string) uint64 {
	if i, ok := enc.strIndex[s]; ok {
		return i
	}
	i := uint64(len(enc.strTable))
	enc.strIndex[s] = i
	enc.strTable = append(enc.strTable, s)
	return i
}

// snapReader walks a snapshot payload.
type snapReader struct {
	buf []byte
	pos int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := Uvarint(r.buf[r.pos:])
	if n == 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

func (r *snapReader) float() (float64, error) {
	if len(r.buf)-r.pos < 8 {
		return 0, ErrTruncated
	}
	v := floatVal(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

// DecodeSnapshot parses a KindSnapshot frame payload into a fresh entry
// slice. Snapshots are decoded once at startup and transfers once per
// shard during bootstrap, so it allocates the result normally instead
// of streaming.
func (d *Decoder) DecodeSnapshot(payload []byte) ([]Entry, error) {
	r := snapReader{buf: payload}
	ver, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d (want %d)", ErrMalformed, ver, snapshotVersion)
	}
	nstr, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nstr > maxDecodeCount || nstr > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: string table size %d", ErrMalformed, nstr)
	}
	table := make([]string, nstr)
	for i := range table {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(r.buf)-r.pos) < l {
			return nil, ErrTruncated
		}
		table[i] = d.str(r.buf[r.pos : r.pos+int(l)])
		r.pos += int(l)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxDecodeCount || n > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: row count %d", ErrMalformed, n)
	}
	entries := make([]Entry, n)
	strCol := func(set func(e *Entry, s string)) error {
		for i := range entries {
			idx, err := r.uvarint()
			if err != nil {
				return err
			}
			if idx >= uint64(len(table)) {
				return fmt.Errorf("%w: string index %d of %d", ErrMalformed, idx, len(table))
			}
			set(&entries[i], table[idx])
		}
		return nil
	}
	uintCol := func(set func(e *Entry, v uint64)) error {
		for i := range entries {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			set(&entries[i], v)
		}
		return nil
	}
	floatCol := func(set func(e *Entry, v float64)) error {
		for i := range entries {
			v, err := r.float()
			if err != nil {
				return err
			}
			set(&entries[i], v)
		}
		return nil
	}
	steps := []func() error{
		func() error { return strCol(func(e *Entry, s string) { e.Key.App = s }) },
		func() error { return strCol(func(e *Entry, s string) { e.Key.Workload = s }) },
		func() error { return strCol(func(e *Entry, s string) { e.Key.Region = s }) },
		func() error { return floatCol(func(e *Entry, v float64) { e.Key.CapW = v }) },
		func() error { return uintCol(func(e *Entry, v uint64) { e.Cfg.Threads = int(v) }) },
		func() error { return uintCol(func(e *Entry, v uint64) { e.Cfg.Schedule = ompt.ScheduleKind(v) }) },
		func() error { return uintCol(func(e *Entry, v uint64) { e.Cfg.Chunk = int(v) }) },
		func() error { return floatCol(func(e *Entry, v float64) { e.Cfg.FreqGHz = v }) },
		func() error { return uintCol(func(e *Entry, v uint64) { e.Cfg.Bind = ompt.BindKind(v) }) },
		func() error { return floatCol(func(e *Entry, v float64) { e.Perf = v }) },
		func() error { return uintCol(func(e *Entry, v uint64) { e.Version = v }) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if r.pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrMalformed, len(payload)-r.pos)
	}
	return entries, nil
}
