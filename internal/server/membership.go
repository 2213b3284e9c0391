package server

// Live-membership endpoints: the heartbeat/gossip pair (/v1/ping,
// /v1/membership), the admin pair (/v1/join, /v1/leave), and the
// bootstrap stream (/v1/transfer). All five are registered
// unconditionally but — except ping, which degrades to an epoch-0
// answer — refuse with 404 on a standalone daemon, matching how a
// pre-fleet arcsd would have answered.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"arcs/internal/codec"
	"arcs/internal/store"
)

// MembershipResponse is the JSON body shared by the membership
// endpoints: the node's current member list, plus what the call did.
type MembershipResponse struct {
	// Applied reports whether a pushed member list superseded (and
	// replaced) the local one.
	Applied bool     `json:"applied,omitempty"`
	Epoch   uint64   `json:"epoch"`
	Nodes   []string `json:"nodes"`
	// Drained is the entry-push count of a self-leave drain.
	Drained int `json:"drained,omitempty"`
}

func (s *Server) membershipResponse(applied bool, drained int) MembershipResponse {
	m := s.fleet.Membership()
	return MembershipResponse{Applied: applied, Epoch: m.Epoch, Nodes: m.Nodes, Drained: drained}
}

// handlePing answers liveness probes with the current member list — the
// heartbeat and epoch-gossip channel in one round trip. A standalone
// daemon answers epoch 0 with no nodes, which fleet-aware callers read
// as "nothing to adopt".
func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.fleet == nil {
		writeJSON(w, http.StatusOK, MembershipResponse{})
		return
	}
	writeJSON(w, http.StatusOK, s.membershipResponse(false, 0))
}

// handleMembership ingests an epoch-versioned member list pushed by a
// peer as one KindMemberList frame. The response is always 200 with the
// list this node holds afterwards: applied=true when the push
// superseded, otherwise the (newer) local list the pusher should adopt
// — losing an epoch race is information, not an error.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.fleet == nil {
		errorJSON(w, http.StatusNotFound, "not a fleet member")
		return
	}
	if !requireFrameBody(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "read membership body: %v", err)
		return
	}
	kind, payload, _, err := codec.Frame(body)
	if err != nil || kind != codec.KindMemberList {
		errorJSON(w, http.StatusBadRequest, "bad membership frame: %v", err)
		return
	}
	dec := binDecPool.Get().(*codec.Decoder)
	defer binDecPool.Put(dec)
	m, err := dec.DecodeMemberList(payload)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "bad member list: %v", err)
		return
	}
	if m.Epoch == 0 || len(m.Nodes) == 0 {
		errorJSON(w, http.StatusBadRequest, "member list must carry an epoch and nodes")
		return
	}
	applied, _ := s.fleet.ApplyMembership(m)
	if applied {
		s.met.membershipApplied.Add(1)
	}
	writeJSON(w, http.StatusOK, s.membershipResponse(applied, 0))
}

// adminNodeRequest is the POST /v1/join and /v1/leave body.
type adminNodeRequest struct {
	Node string `json:"node"`
}

func (s *Server) decodeAdminNode(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST only")
		return "", false
	}
	if s.fleet == nil {
		errorJSON(w, http.StatusNotFound, "not a fleet member")
		return "", false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "read body: %v", err)
		return "", false
	}
	var req adminNodeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		errorJSON(w, http.StatusBadRequest, "bad body: %v", err)
		return "", false
	}
	if req.Node == "" {
		errorJSON(w, http.StatusBadRequest, "node is required")
		return "", false
	}
	return req.Node, true
}

// handleJoin adds a node to the live membership: this member proposes
// the grown list at the next epoch and broadcasts it fleet-wide. The
// joining daemon itself then bootstraps its owned ranges via
// /v1/transfer — the proposal only changes who owns what.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	node, ok := s.decodeAdminNode(w, r)
	if !ok {
		return
	}
	if _, err := s.fleet.ProposeJoin(r.Context(), node); err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "join %s: %v", node, err)
		return
	}
	writeJSON(w, http.StatusOK, s.membershipResponse(true, 0))
}

// handleLeave removes a node from the live membership. When the node
// being removed is this server itself, it first proposes the shrunk
// list (so the fleet routes around it) and then drains every entry it
// holds to the new owners before acknowledging — the clean-decommission
// path. Removing a dead third node skips the drain (there is nothing
// reachable to drain); anti-entropy re-replicates from the survivors.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	node, ok := s.decodeAdminNode(w, r)
	if !ok {
		return
	}
	if _, err := s.fleet.ProposeLeave(r.Context(), node); err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "leave %s: %v", node, err)
		return
	}
	drained := 0
	if node == s.fleet.Self() {
		n, err := s.fleet.Drain(r.Context())
		drained = n
		if err != nil {
			// Partial drain: the proposal already landed, so report what
			// moved and let anti-entropy repair the rest rather than
			// pretending the leave failed.
			s.met.drainErrors.Add(1)
		}
	}
	writeJSON(w, http.StatusOK, s.membershipResponse(true, drained))
}

// handleTransfer serves one shard's entries owned by the requesting
// node — the bootstrap stream. The caller names the epoch its ring came
// from; a mismatch answers 409 with the server's current member list,
// so the caller adopts it and retries under the corrected ring instead
// of pulling ranges that are about to be wrong. The response is one
// CRC-framed KindRangeTransfer, making a torn stream detectable as a
// unit.
func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.fleet == nil {
		errorJSON(w, http.StatusNotFound, "not a fleet member")
		return
	}
	q := r.URL.Query()
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= store.NumShards {
		errorJSON(w, http.StatusBadRequest, "shard must be in [0,%d)", store.NumShards)
		return
	}
	forNode := q.Get("for")
	if forNode == "" {
		errorJSON(w, http.StatusBadRequest, "for is required")
		return
	}
	epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "bad epoch %q", q.Get("epoch"))
		return
	}
	if cur := s.fleet.Epoch(); epoch != cur {
		s.met.transferEpochConflicts.Add(1)
		writeJSON(w, http.StatusConflict, s.membershipResponse(false, 0))
		return
	}
	entries := s.fleet.RangeEntries(shard, forNode)
	s.met.transferredOut.Add(uint64(len(entries)))
	bb := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(bb)
	t := codec.RangeTransfer{Epoch: epoch, Shard: uint64(shard), Entries: make([]codec.Entry, len(entries))}
	for i, e := range entries {
		t.Entries[i] = codec.Entry(e)
	}
	bb.buf = bb.enc.AppendRangeTransfer(bb.buf[:0], &t)
	writeFrame(w, http.StatusOK, bb.buf)
}
