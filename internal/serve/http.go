package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/predictor"
	"repro/internal/serve/transport"
)

// The transport layer owns the listeners and the routes it can serve from
// the Ingestor alone (POST /ingest, /healthz, /readyz); this file holds the
// routes that need the layers above — the prediction stream, statusz and
// alerts — which Start mounts onto the HTTP transport via Handle.

// handlePredictions streams predictor.Output values as NDJSON for as long
// as the client stays connected (or until the server drains and the hub
// closes). Each subscriber gets an independent buffered subscription —
// attach/detach never disturbs other consumers.
func (s *Server) handlePredictions(w http.ResponseWriter, r *http.Request) {
	// ?mode=alerts switches to the arbiter's scored/ranked alert view — a
	// point-in-time NDJSON read rather than a subscription stream.
	if r.URL.Query().Get("mode") == "alerts" {
		s.handleAlerts(w, r)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.Subscribe(0)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Each output is encoded into one reused buffer, the bytes
	// json.Encoder.Encode would write; the one encoding/json refuses goes
	// to it for its error.
	var buf []byte
	write := func(out predictor.Output) error {
		b, ok := out.AppendJSON(buf[:0])
		if !ok {
			return json.NewEncoder(w).Encode(out)
		}
		buf = b
		_, err := w.Write(b)
		return err
	}
	// ?replay=recovered prepends the outputs re-derived by boot-time WAL
	// replay, so a subscriber that reconnects after a crash sees every
	// prediction the dead process had fired but not delivered. Recovery
	// completes before listeners open, so the list is final and disjoint
	// from the live stream this handler switches to afterwards.
	if r.URL.Query().Get("replay") == "recovered" {
		for _, out := range s.Recovered() {
			if err := write(out); err != nil {
				return
			}
		}
		fl.Flush()
	}
	for {
		select {
		case out, ok := <-sub.Out():
			if !ok {
				return // server drained
			}
			if err := write(out); err != nil {
				return // client gone
			}
			// Flush once the subscription is drained: a burst of outputs
			// costs one write, and the last of it is never held back.
			if len(sub.Out()) == 0 {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleAlerts serves GET /predictions?mode=alerts: the current ranked
// alerts as NDJSON, highest score first (deterministic order — ties break by
// node ID). ?min_score=<f> trims the tail below a score; ?limit=<n> caps the
// count. Unlike the default subscription mode this is a point-in-time read,
// not a stream: callers poll it.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Arbiter == nil {
		http.Error(w, "arbiter disabled", http.StatusNotFound)
		return
	}
	alerts := s.Alerts()
	q := r.URL.Query()
	if v := q.Get("min_score"); v != "" {
		minScore, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "min_score must be a number", http.StatusBadRequest)
			return
		}
		// Sorted by score descending: trimming is a tail cut.
		n := len(alerts)
		for n > 0 && alerts[n-1].Score < minScore {
			n--
		}
		alerts = alerts[:n]
	}
	if v := q.Get("limit"); v != "" {
		limit, err := strconv.Atoi(v)
		if err != nil || limit < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		if limit < len(alerts) {
			alerts = alerts[:limit]
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := range alerts {
		if err := enc.Encode(&alerts[i]); err != nil {
			return
		}
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	transport.WriteJSON(w, s.Status())
}

// handlePeers serves GET /peers: the cluster membership view — every peer
// this daemon knows with state, incarnation and addresses — plus the local
// forwarding/shipping counters. Mounted only in cluster mode.
func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	transport.WriteJSON(w, s.cluster.status())
}
