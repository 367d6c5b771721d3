// Package transport holds the daemon's network front ends: the TCP line
// listener and the HTTP ingest/health server. Both speak to the rest of the
// daemon only through the Ingestor interface (plus, when the serve layer
// wires it, a func that takes one socket read's lines at a time) — transports
// know how to frame bytes off a socket, not what a queue, shard, or model is
// — so the serve layer can compose them over any pipeline and the layering
// analyzer can hold the boundary (transport imports neither pipeline nor
// shard).
package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Ingestor is what a transport needs from the layers below: producer
// registration (so a drain can wait for in-flight batches), line submission,
// and the drain flag (to silence expected errors and fail readiness).
// Implemented by the serve layer over the ingest pipeline.
type Ingestor interface {
	// BeginProduce registers a producer; false means the server is draining
	// and the caller must not submit.
	BeginProduce() bool
	// EndProduce releases a BeginProduce registration.
	EndProduce()
	// Ingest submits one raw log line under a held registration, reporting
	// whether it was accepted (false = shed at a full queue). line may be a
	// view of the connection's reused read buffer: it is valid only until
	// Ingest returns, so an implementation copies what it keeps.
	Ingest(line string) bool
	// Draining reports whether shutdown has begun.
	Draining() bool
}

// Config carries the knobs both transports share. Callers pass
// already-defaulted values; Logf must be non-nil.
type Config struct {
	// MaxLineLen caps one log line (the framer's read buffer grows no further).
	MaxLineLen int
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
}

// IngestResult is the POST /ingest response body.
type IngestResult struct {
	// Accepted lines were enqueued toward the Manager.
	Accepted int `json:"accepted"`
	// Dropped lines hit a full queue under the Shed policy.
	Dropped int `json:"dropped"`
	// Malformed lines were JSON-framed but undecodable (never enqueued;
	// they count toward neither accepted nor dropped).
	Malformed int `json:"malformed"`
}

// WriteJSON writes v as indented JSON with a 200 status.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	WriteJSONBody(w, v)
}

// WriteJSONBody encodes v without touching the status line — for handlers
// that already wrote a non-200 header.
func WriteJSONBody(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ReadBody reads a request body with a hard size cap.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds %d bytes", limit)
	}
	return data, nil
}
