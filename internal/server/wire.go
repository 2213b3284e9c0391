// Encodings and pooled response encoding for the arcsd API.
//
// Each endpoint has one encoding per direction. The curl-facing
// endpoints answer JSON; /v1/config and the /v1/reports ack switch to a
// binary frame under an Accept of application/x-arcs-bin, which is what
// storeclient always sends. Fleet-internal endpoints take and return
// frames only. Error bodies are always JSON — a binary client still
// reads the status code, and the body stays debuggable with curl.
//
// All response encoding goes through sync.Pools: the previous handlers
// built a json.Encoder per response and wrote straight to the socket,
// which showed up as steady allocation churn on the config/report hot
// path.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"arcs/internal/codec"
)

// acceptsBinary reports whether the client asked for binary responses.
// Absence, */* or application/json keep the JSON default, so a client
// that never heard of the codec never sees a frame.
func acceptsBinary(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		if strings.Contains(v, codec.ContentType) {
			return true
		}
	}
	return false
}

// binaryBody reports whether the request body claims to be a binary
// frame (Content-Type: application/x-arcs-bin, parameters tolerated).
func binaryBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == codec.ContentType || strings.HasPrefix(ct, codec.ContentType+";")
}

// requireFrameBody refuses, with 415 and a JSON error, a request body
// that is not a binary frame: fleet-internal endpoints have exactly one
// encoding.
func requireFrameBody(w http.ResponseWriter, r *http.Request) bool {
	if binaryBody(r) {
		return true
	}
	errorJSON(w, http.StatusUnsupportedMediaType, "body must be %s", codec.ContentType)
	return false
}

// jsonBuf pairs a buffer with a json.Encoder bound to it for the life
// of the pool entry, so hot handlers neither allocate an encoder per
// response nor write to the socket in encoder-sized pieces.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// writeJSON encodes v through a pooled buffer and writes it with an
// exact Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jsonBufPool.Put(jb)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// Response types are plain structs and maps; encoding them cannot
		// fail at runtime, but a silent empty body would hide it if it did.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
}

// errorJSON writes a JSON error body with the given status, whatever
// the Accept header said.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// binBuf pairs a codec.Encoder with its output buffer; binDec pools
// Decoders so their intern tables survive across requests (the same
// app/workload/region names arrive on every report).
type binBuf struct {
	enc codec.Encoder
	buf []byte
}

var (
	binBufPool = sync.Pool{New: func() any { return new(binBuf) }}
	binDecPool = sync.Pool{New: func() any { return new(codec.Decoder) }}
)

// writeFrame writes one already-encoded binary frame.
func writeFrame(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", codec.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// writeConfig answers /v1/config in the negotiated encoding.
func writeConfig(w http.ResponseWriter, r *http.Request, resp ConfigResponse) {
	if !acceptsBinary(r) {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bb := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(bb)
	ans := codec.ConfigAnswer{
		Key: resp.Key, Cfg: resp.Config, Perf: resp.Perf, Version: resp.Version,
		Source: resp.Source, CapDistance: resp.CapDistance,
	}
	bb.buf = bb.enc.AppendConfigAnswer(bb.buf[:0], &ans)
	writeFrame(w, http.StatusOK, bb.buf)
}

// writeAck acknowledges a report ingest in the negotiated encoding.
func (s *Server) writeAck(w http.ResponseWriter, r *http.Request, saved int) {
	n := s.st.Len()
	if !acceptsBinary(r) {
		writeJSON(w, http.StatusOK, map[string]any{"saved": saved, "store_len": n})
		return
	}
	bb := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(bb)
	ack := codec.Ack{Saved: uint64(saved), StoreLen: uint64(n)}
	bb.buf = bb.enc.AppendAck(bb.buf[:0], &ack)
	writeFrame(w, http.StatusOK, bb.buf)
}
