package codec

import "fmt"

// Fleet membership frames and replies.
//
// A MemberList is the epoch-versioned fleet member list: the unit the
// join/leave protocol gossips (one KindMemberList frame per push).
// Bootstrap moves shard ranges as KindSnapshot frames (snapshot.go):
// CRC-framed like every other frame, which is what makes transfers
// resumable — a connection torn mid-shard fails the frame checksum as
// a unit, the receiver merges nothing, and the retry re-pulls the
// shard.

// MemberList is the epoch-versioned fleet membership. Nodes is sorted
// (the canonical order); Epoch totally orders member lists fleet-wide.
type MemberList struct {
	Epoch uint64   `json:"epoch"`
	Nodes []string `json:"nodes"`
}

// MembershipReply is the JSON body of /v1/ping, /v1/membership,
// /v1/join, /v1/leave and the /v1/transfer 409: the serving node's
// member list, plus what the call did to it. The embedded list keeps
// the field order applied, epoch, nodes, drained.
type MembershipReply struct {
	// Applied reports whether a pushed member list superseded (and
	// replaced) the local one.
	Applied bool `json:"applied,omitempty"`
	MemberList
	// Drained is the entry-push count of a self-leave drain.
	Drained int `json:"drained,omitempty"`
}

// memberListVersion is the member-list payload format version.
const memberListVersion = 1

// AppendMemberList appends m as one framed KindMemberList message:
// uvarint version, uvarint epoch, uvarint node count, then each node
// name length-prefixed in list order.
func (enc *Encoder) AppendMemberList(dst []byte, m *MemberList) []byte {
	p := enc.payload[:0]
	p = AppendUvarint(p, memberListVersion)
	p = AppendUvarint(p, m.Epoch)
	p = AppendUvarint(p, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		p = AppendUvarint(p, uint64(len(n)))
		p = append(p, n...)
	}
	enc.payload = p
	return AppendFrame(dst, KindMemberList, p)
}

// DecodeMemberList parses a KindMemberList frame payload.
func (d *Decoder) DecodeMemberList(payload []byte) (MemberList, error) {
	r := snapReader{buf: payload}
	ver, err := r.uvarint()
	if err != nil {
		return MemberList{}, err
	}
	if ver != memberListVersion {
		return MemberList{}, fmt.Errorf("%w: member list version %d (want %d)", ErrMalformed, ver, memberListVersion)
	}
	epoch, err := r.uvarint()
	if err != nil {
		return MemberList{}, err
	}
	n, err := r.uvarint()
	if err != nil {
		return MemberList{}, err
	}
	if n > maxDecodeCount || n > uint64(len(payload)) {
		return MemberList{}, fmt.Errorf("%w: member count %d", ErrMalformed, n)
	}
	m := MemberList{Epoch: epoch, Nodes: make([]string, n)}
	for i := range m.Nodes {
		l, err := r.uvarint()
		if err != nil {
			return MemberList{}, err
		}
		if uint64(len(r.buf)-r.pos) < l {
			return MemberList{}, ErrTruncated
		}
		m.Nodes[i] = d.str(r.buf[r.pos : r.pos+int(l)])
		r.pos += int(l)
	}
	if r.pos != len(payload) {
		return MemberList{}, fmt.Errorf("%w: %d trailing bytes after member list", ErrMalformed, len(payload)-r.pos)
	}
	return m, nil
}
