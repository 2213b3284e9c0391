package codec

import (
	"fmt"
	"hash/crc32"

	arcs "arcs/internal/core"
)

// Digest is the anti-entropy summary of one store shard: for every key
// the shard holds, the entry's version, its perf, and a checksum of its
// configuration. Versions alone cannot detect equal-version divergence
// (two nodes that each accepted a different report as version N), so
// the perf and config checksum ride along; a peer pushes a repair when
// any of the three differ. Exchanged over GET /v1/digest.
type Digest struct {
	Shard   uint64        `json:"shard"`
	Entries []DigestEntry `json:"entries"`
}

// DigestEntry summarises one stored record. Key is the canonical
// escaped-injective HistoryKey string — the same string the ring hashes
// and the store shards by, so digest comparison never needs to parse a
// key back into its fields.
type DigestEntry struct {
	Key     string  `json:"key"`
	Version uint64  `json:"version"`
	Perf    float64 `json:"perf"`
	CfgSum  uint32  `json:"cfg_sum"`
}

// digestVersion is bumped when the digest layout changes. Digests are
// point-in-time exchanges, never stored, so there is no migration to
// carry — a version mismatch is simply a malformed message.
const digestVersion = 1

// ConfigChecksum is the IEEE CRC32 of a ConfigValues' canonical field
// encoding. The same config always sums identically (the encoder is
// deterministic), so digest comparison detects config divergence
// without shipping whole entries.
func ConfigChecksum(c *arcs.ConfigValues) uint32 {
	var stack [64]byte
	return crc32.ChecksumIEEE(appendCfg(stack[:0], c))
}

// AppendDigest appends d as one framed KindDigest message. The payload
// follows the snapshot's columnar idiom:
//
//	uvarint digestVersion (currently 1)
//	uvarint shard
//	uvarint count
//	count × (uvarint len, key bytes)
//	count × uvarint version
//	count × fixed8 perf
//	count × uvarint cfgSum
//
// Entries should be in a deterministic order (the store hands them out
// in entry order, arcs.CompareEntryKeys: by context, then cap).
func (enc *Encoder) AppendDigest(dst []byte, d *Digest) []byte {
	p := enc.payload[:0]
	p = AppendUvarint(p, digestVersion)
	p = AppendUvarint(p, d.Shard)
	p = AppendUvarint(p, uint64(len(d.Entries)))
	for i := range d.Entries {
		p = AppendUvarint(p, uint64(len(d.Entries[i].Key)))
		p = append(p, d.Entries[i].Key...)
	}
	for i := range d.Entries {
		p = AppendUvarint(p, d.Entries[i].Version)
	}
	for i := range d.Entries {
		p = appendFloat(p, d.Entries[i].Perf)
	}
	for i := range d.Entries {
		p = AppendUvarint(p, uint64(d.Entries[i].CfgSum))
	}
	enc.payload = p
	return AppendFrame(dst, KindDigest, p)
}

// DecodeDigest parses a KindDigest frame payload. Digests are decoded
// once per sweep exchange, so the result is allocated normally; keys go
// through the intern table because the same keys recur sweep after
// sweep.
func (d *Decoder) DecodeDigest(payload []byte) (Digest, error) {
	r := snapReader{buf: payload}
	ver, err := r.uvarint()
	if err != nil {
		return Digest{}, err
	}
	if ver != digestVersion {
		return Digest{}, fmt.Errorf("%w: digest version %d (want %d)", ErrMalformed, ver, digestVersion)
	}
	var out Digest
	if out.Shard, err = r.uvarint(); err != nil {
		return Digest{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return Digest{}, err
	}
	if n > maxDecodeCount || n > uint64(len(payload)) {
		return Digest{}, fmt.Errorf("%w: digest count %d", ErrMalformed, n)
	}
	out.Entries = make([]DigestEntry, n)
	for i := range out.Entries {
		l, err := r.uvarint()
		if err != nil {
			return Digest{}, err
		}
		if uint64(len(r.buf)-r.pos) < l {
			return Digest{}, ErrTruncated
		}
		out.Entries[i].Key = d.str(r.buf[r.pos : r.pos+int(l)])
		r.pos += int(l)
	}
	for i := range out.Entries {
		if out.Entries[i].Version, err = r.uvarint(); err != nil {
			return Digest{}, err
		}
	}
	for i := range out.Entries {
		if out.Entries[i].Perf, err = r.float(); err != nil {
			return Digest{}, err
		}
	}
	for i := range out.Entries {
		v, err := r.uvarint()
		if err != nil {
			return Digest{}, err
		}
		out.Entries[i].CfgSum = uint32(v)
	}
	if r.pos != len(payload) {
		return Digest{}, fmt.Errorf("%w: %d trailing bytes after digest", ErrMalformed, len(payload)-r.pos)
	}
	return out, nil
}
