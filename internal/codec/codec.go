// Package codec implements the compact binary wire and storage encoding
// used by arcsd and the knowledge store: a length-prefixed, CRC-framed,
// field-tagged format for the core serving types (history keys, tuned
// configurations, store entries, report batches, search requests and
// results) plus a columnar snapshot layout.
//
// Design goals, in order:
//
//   - Zero allocations on the hot path. Every encoder is an
//     append-style function (`Append*(dst []byte, ...) []byte`) so
//     callers amortise one buffer across calls; the Decoder reads in
//     place and interns repeated strings (app, workload and region
//     names recur heavily), so steady-state decoding allocates nothing.
//   - Evolvable without version negotiation. Message fields carry
//     append-only numeric tags (protobuf-style tag = num<<3|wiretype);
//     a reader skips tags it does not know by wire type alone, so old
//     readers tolerate new fields and new readers tolerate old writers.
//   - Corruption is detected, never trusted. Every frame ends in the
//     IEEE CRC32 of its payload; a frame that fails its length or
//     checksum is rejected as a unit. Decoders bound every nested
//     length by the bytes that actually remain, so corrupt length
//     prefixes cannot trigger huge allocations or panics.
//
// Frame layout (see DESIGN.md §11):
//
//	magic 0xA7 | kind byte | uvarint payload length | payload | CRC32(payload) LE
//
// The frame is the unit of the wire protocol (one message per frame,
// or one batch per frame) and of the binary WAL (one entry per frame).
// The columnar snapshot is a single frame whose payload holds a string
// table plus per-field columns for the whole entry set.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic is the first byte of every frame. It is deliberately not a
// printable ASCII byte: the store's WAL replayer distinguishes binary
// frames from legacy JSON lines (which start with '{' or a hex digit)
// by this byte alone.
const Magic = 0xA7

// Frame kinds. Append-only: never renumber.
const (
	KindEntry         = 0x01 // one store entry (WAL record, dump stream element)
	KindReport        = 0x02 // one report (key, config, perf)
	KindReportBatch   = 0x03 // uvarint count + count length-prefixed reports
	KindConfigAnswer  = 0x04 // /v1/config response
	KindAck           = 0x05 // /v1/report(s) response
	KindSearchReq     = 0x06 // server-side search request
	KindSearchRes     = 0x07 // one search result
	KindSnapshot      = 0x08 // columnar snapshot of the full entry set
	KindDigest        = 0x09 // per-shard anti-entropy digest (/v1/digest)
	KindMemberList    = 0x0A // epoch-versioned fleet member list (/v1/membership)
	KindRangeTransfer = 0x0B // columnar shard-range transfer for bootstrap (/v1/transfer)
)

// ContentType is the negotiated media type for binary request and
// response bodies on the arcsd HTTP API.
const ContentType = "application/x-arcs-bin"

// ForwardedHeader marks an intra-fleet request that was already routed
// once by a peer. A server never re-forwards a marked request, so a
// stale or disagreeing ring cannot bounce a request around the fleet.
const ForwardedHeader = "X-Arcs-Fleet-Forwarded"

// Wire types, the low three bits of a field tag.
const (
	wtVarint = 0 // unsigned varint
	wtFixed8 = 1 // 8 bytes little-endian (float64 bits)
	wtBytes  = 2 // uvarint length + bytes (strings, nested messages)
)

// Decode errors. Errors are values, not panics: every decoder is fuzzed
// with arbitrary bytes.
var (
	ErrFrame     = errors.New("codec: bad frame")
	ErrChecksum  = errors.New("codec: checksum mismatch")
	ErrTruncated = errors.New("codec: truncated input")
	ErrMalformed = errors.New("codec: malformed message")
)

// maxDecodeCount bounds counts read from untrusted input (batch sizes,
// snapshot rows, string-table sizes) beyond what the surrounding buffer
// could possibly hold; combined with remaining-length checks it keeps a
// corrupt count from pre-allocating gigabytes.
const maxDecodeCount = 1 << 24

// --- primitives -------------------------------------------------------

// AppendUvarint appends v as an unsigned LEB128 varint.
//
//arcslint:hotpath varint primitive under every encoder
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint reads an unsigned varint from b, returning the value and the
// number of bytes consumed (0 when b is truncated or malformed).
func Uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}

// appendFloat appends the IEEE-754 bits of f, little-endian.
//
//arcslint:hotpath fixed8 primitive under every encoder
func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendTag appends a field tag.
//
//arcslint:hotpath tag primitive under every field append
func appendTag(dst []byte, num, wt int) []byte {
	return AppendUvarint(dst, uint64(num)<<3|uint64(wt))
}

// appendStringField appends tag + length-prefixed string, omitting
// empty strings (zero values are implicit, proto3-style).
//
//arcslint:hotpath field append on the encode path
func appendStringField(dst []byte, num int, s string) []byte {
	if s == "" {
		return dst
	}
	dst = appendTag(dst, num, wtBytes)
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendUintField appends tag + varint, omitting zero.
//
//arcslint:hotpath field append on the encode path
func appendUintField(dst []byte, num int, v uint64) []byte {
	if v == 0 {
		return dst
	}
	dst = appendTag(dst, num, wtVarint)
	return AppendUvarint(dst, v)
}

// appendFloatField appends tag + fixed64 float, omitting zero. The
// zero-elision rule folds negative zero into zero, which is the store's
// semantics anyway (a 0 cap means "uncapped").
//
//arcslint:hotpath field append on the encode path
func appendFloatField(dst []byte, num int, f float64) []byte {
	//arcslint:ignore floatcmp exact-zero elision is the wire contract, not a tolerance bug
	if f == 0 {
		return dst
	}
	dst = appendTag(dst, num, wtFixed8)
	return appendFloat(dst, f)
}

// appendBytesField appends tag + length-prefixed bytes (nested
// messages), omitting empty payloads.
//
//arcslint:hotpath field append on the encode path
func appendBytesField(dst []byte, num int, b []byte) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = appendTag(dst, num, wtBytes)
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// fieldReader walks the tagged fields of one message payload.
type fieldReader struct {
	buf []byte
	pos int
}

// next returns the next field's number, wire type, and value bytes
// (varint bytes, 8 fixed bytes, or the length-delimited payload).
// done reports exhaustion; err any malformation.
//
//arcslint:hotpath per-field step of every decoder
func (r *fieldReader) next() (num, wt int, val []byte, done bool, err error) {
	if r.pos >= len(r.buf) {
		return 0, 0, nil, true, nil
	}
	tag, n := Uvarint(r.buf[r.pos:])
	if n == 0 {
		return 0, 0, nil, false, ErrMalformed
	}
	r.pos += n
	num, wt = int(tag>>3), int(tag&7)
	switch wt {
	case wtVarint:
		_, vn := Uvarint(r.buf[r.pos:])
		if vn == 0 {
			return 0, 0, nil, false, ErrTruncated
		}
		val = r.buf[r.pos : r.pos+vn]
		r.pos += vn
	case wtFixed8:
		if len(r.buf)-r.pos < 8 {
			return 0, 0, nil, false, ErrTruncated
		}
		val = r.buf[r.pos : r.pos+8]
		r.pos += 8
	case wtBytes:
		l, ln := Uvarint(r.buf[r.pos:])
		if ln == 0 {
			return 0, 0, nil, false, ErrTruncated
		}
		r.pos += ln
		if uint64(len(r.buf)-r.pos) < l {
			return 0, 0, nil, false, ErrTruncated
		}
		val = r.buf[r.pos : r.pos+int(l)]
		r.pos += int(l)
	default:
		// Unknown wire types cannot be skipped safely: reject the
		// message rather than guess at its framing.
		return 0, 0, nil, false, fmt.Errorf("%w: wire type %d", ErrMalformed, wt)
	}
	return num, wt, val, false, nil
}

// uintVal decodes a varint field value.
//
//arcslint:hotpath field value decode
func uintVal(val []byte) uint64 {
	v, _ := Uvarint(val)
	return v
}

// floatVal decodes a fixed64 field value.
//
//arcslint:hotpath field value decode
func floatVal(val []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(val))
}

// --- framing ----------------------------------------------------------

// AppendFrame wraps payload in a frame of the given kind:
// magic, kind, uvarint length, payload, CRC32 (IEEE, little-endian).
//
//arcslint:hotpath framing on the WAL and wire encode paths
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, Magic, kind)
	dst = AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Frame parses one frame at the start of b, returning its kind, its
// payload (aliasing b, zero-copy), and the total number of bytes the
// frame occupies. ErrTruncated distinguishes "need more bytes" from
// structural corruption (ErrFrame / ErrChecksum), so streaming readers
// can tell a torn tail from a damaged record.
//
//arcslint:hotpath framing on the WAL replay and wire decode paths
func Frame(b []byte) (kind byte, payload []byte, n int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, ErrTruncated
	}
	if b[0] != Magic {
		return 0, nil, 0, ErrFrame
	}
	if len(b) < 2 {
		return 0, nil, 0, ErrTruncated
	}
	kind = b[1]
	l, ln := Uvarint(b[2:])
	if ln == 0 {
		if len(b)-2 >= binary.MaxVarintLen64 {
			return 0, nil, 0, ErrFrame // malformed length, not a short read
		}
		return 0, nil, 0, ErrTruncated
	}
	if l > maxFramePayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrFrame, l)
	}
	start := 2 + ln
	end := start + int(l)
	if len(b) < end+4 {
		return 0, nil, 0, ErrTruncated
	}
	payload = b[start:end]
	sum := binary.LittleEndian.Uint32(b[end:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, ErrChecksum
	}
	return kind, payload, end + 4, nil
}

// maxFramePayload bounds a single frame. Entries and report batches are
// small; snapshots of even a million-entry store fit comfortably.
const maxFramePayload = 1 << 28
