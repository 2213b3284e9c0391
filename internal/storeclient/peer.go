package storeclient

// Intra-fleet peer RPCs. These methods make *Client satisfy fleet.Peer
// (structurally — fleet defines the interface, this package implements
// it; the dependency runs storeclient→fleet, never back). Every peer
// RPC speaks the binary codec only: fleet members run the same build,
// so a hop has exactly one encoding.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"arcs/internal/codec"
	"arcs/internal/fleet"
	"arcs/internal/store"
)

// MergeEntries replicates already-versioned entries to the peer (POST
// /v1/merge): the receiver applies them under store.Supersedes and
// never re-replicates. The body is a concatenation of KindEntry frames
// — the WAL's own record format, decoded with the same loop.
func (c *Client) MergeEntries(ctx context.Context, entries []store.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	return c.postFrame(ctx, reqSpec{path: "/v1/merge", forwarded: true, onFrame: expectAck},
		func(enc *codec.Encoder, dst []byte) []byte {
			for i := range entries {
				dst = enc.AppendEntry(dst, &entries[i])
			}
			return dst
		})
}

// ForwardReports re-routes reports to a peer that owns them: the normal
// /v1/reports ingest path plus the forwarded marker, so the receiving
// owner authors versions via its own Save and never forwards again.
func (c *Client) ForwardReports(ctx context.Context, reports []codec.Report) error {
	if len(reports) == 0 {
		return nil
	}
	return c.postFrame(ctx, reqSpec{path: "/v1/reports", forwarded: true, onFrame: expectAck},
		func(enc *codec.Encoder, dst []byte) []byte { return enc.AppendReportBatch(dst, reports) })
}

// ShardDigest fetches the peer's anti-entropy summary of one store
// shard (GET /v1/digest?shard=N), one KindDigest frame.
func (c *Client) ShardDigest(ctx context.Context, shard int) (codec.Digest, error) {
	var res codec.Digest
	err := c.doSpec(ctx, reqSpec{
		method: http.MethodGet,
		path:   "/v1/digest?shard=" + strconv.Itoa(shard),
		onFrame: func(kind byte, payload []byte) error {
			if kind != codec.KindDigest {
				return fmt.Errorf("storeclient: unexpected frame kind %#x for digest", kind)
			}
			dec := decPool.Get().(*codec.Decoder)
			defer decPool.Put(dec)
			d, err := dec.DecodeDigest(payload)
			if err != nil {
				return fmt.Errorf("storeclient: decode digest: %w", err)
			}
			res = d
			return nil
		},
	})
	if err != nil {
		return codec.Digest{}, err
	}
	return res, nil
}

// Ping probes liveness (GET /v1/ping) and returns the peer's current
// member list — one round trip serves as both the heartbeat and the
// epoch-gossip channel. A standalone (fleetless) daemon answers with
// epoch 0 and no nodes.
func (c *Client) Ping(ctx context.Context) (codec.MemberList, error) {
	var out codec.MembershipReply
	if err := c.doSpec(ctx, reqSpec{method: http.MethodGet, path: "/v1/ping", out: &out}); err != nil {
		return codec.MemberList{}, err
	}
	return out.MemberList, nil
}

// PushMembership offers the peer an epoch-versioned member list (POST
// /v1/membership, one KindMemberList frame) and returns the list the
// peer holds afterwards: m itself when it superseded, or the peer's
// (newer) list when the push lost the epoch race — which is how a
// proposer learns it must adopt and retry.
func (c *Client) PushMembership(ctx context.Context, m codec.MemberList) (codec.MemberList, error) {
	var out codec.MembershipReply
	err := c.postFrame(ctx, reqSpec{path: "/v1/membership", out: &out},
		func(enc *codec.Encoder, dst []byte) []byte { return enc.AppendMemberList(dst, &m) })
	if err != nil {
		return codec.MemberList{}, err
	}
	return out.MemberList, nil
}

// TransferRange pulls one store shard's entries owned by forNode under
// the given epoch's ring (GET /v1/transfer) — the bootstrap stream. A
// server on a different epoch rejects with 409 and its current member
// list, surfaced as *fleet.EpochMismatchError so the caller adopts the
// list and retries under the corrected ring. The response is one
// CRC-framed KindSnapshot of the range: a transfer torn mid-body fails
// the frame checksum as a unit, so the caller can never merge half a
// shard.
func (c *Client) TransferRange(ctx context.Context, shard int, forNode string, epoch uint64) ([]store.Entry, error) {
	q := "shard=" + strconv.Itoa(shard) + "&for=" + url.QueryEscape(forNode) + "&epoch=" + strconv.FormatUint(epoch, 10)
	var entries []store.Entry
	err := c.doSpec(ctx, reqSpec{
		method: http.MethodGet,
		path:   "/v1/transfer?" + q,
		on409: func(body []byte) error {
			var cur codec.MembershipReply
			if jerr := json.Unmarshal(body, &cur); jerr != nil || cur.Epoch == 0 {
				return nil // not a membership payload; generic statusError
			}
			return &fleet.EpochMismatchError{Current: cur.MemberList}
		},
		onFrame: func(kind byte, payload []byte) error {
			if kind != codec.KindSnapshot {
				return fmt.Errorf("storeclient: unexpected frame kind %#x for transfer", kind)
			}
			dec := decPool.Get().(*codec.Decoder)
			defer decPool.Put(dec)
			var err error
			if entries, err = dec.DecodeSnapshot(payload); err != nil {
				return fmt.Errorf("storeclient: decode range transfer: %w", err)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Join asks the member at this client's base URL to coordinate adding
// node to the fleet (POST /v1/join), returning the membership that
// resulted.
func (c *Client) Join(ctx context.Context, node string) (codec.MemberList, error) {
	var out codec.MembershipReply
	spec := reqSpec{method: http.MethodPost, path: "/v1/join", out: &out}
	if err := c.doJSONSpec(ctx, spec, map[string]string{"node": node}); err != nil {
		return codec.MemberList{}, err
	}
	return out.MemberList, nil
}

// Leave asks the member at this client's base URL to coordinate
// removing node from the fleet (POST /v1/leave). Removing the serving
// node itself makes it drain its entries to the new owners before
// acknowledging. Returns the membership that resulted.
func (c *Client) Leave(ctx context.Context, node string) (codec.MemberList, error) {
	var out codec.MembershipReply
	spec := reqSpec{method: http.MethodPost, path: "/v1/leave", out: &out}
	if err := c.doJSONSpec(ctx, spec, map[string]string{"node": node}); err != nil {
		return codec.MemberList{}, err
	}
	return out.MemberList, nil
}
