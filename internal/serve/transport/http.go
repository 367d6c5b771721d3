package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
)

// HTTP is the daemon's HTTP front end. It owns the routes a transport can
// serve from the Ingestor alone — POST /ingest, GET /healthz, GET /readyz —
// and exposes Handle so the serve layer can mount the routes that need the
// layers above (predictions stream, statusz, model admin) without this
// package importing them.
type HTTP struct {
	cfg   Config
	ing   Ingestor
	batch func(lines []string) int

	mux  *http.ServeMux
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// NewHTTP builds the HTTP front end with its transport-level routes
// registered. Mount additional routes with Handle before Start.
func NewHTTP(cfg Config, ing Ingestor) *HTTP {
	h := &HTTP{
		cfg:  cfg,
		ing:  ing,
		mux:  http.NewServeMux(),
		done: make(chan struct{}),
	}
	h.mux.HandleFunc("POST /ingest", h.handleIngest)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /readyz", h.handleReadyz)
	return h
}

// Handle mounts an upper-layer route on the transport's mux. Call before
// Start.
func (h *HTTP) Handle(pattern string, handler http.HandlerFunc) {
	h.mux.HandleFunc(pattern, handler)
}

// SetBatchIngest wires the chunk path for POST /ingest, as TCP.SetBatchIngest
// does for the line listener, with the same lifetime: the lines are valid
// only until fn returns. Call before Start.
func (h *HTTP) SetBatchIngest(fn func(lines []string) int) { h.batch = fn }

// Start binds addr and begins serving.
func (h *HTTP) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: http listen: %w", err)
	}
	h.ln = ln
	h.srv = &http.Server{Handler: h.mux}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			h.cfg.Logf("serve: http: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listener address (nil before Start).
func (h *HTTP) Addr() net.Addr {
	if h.ln == nil {
		return nil
	}
	return h.ln.Addr()
}

// Stop gracefully shuts the server down within ctx, force-closing open
// streams if the deadline hits. No-op before Start.
func (h *HTTP) Stop(ctx context.Context) error {
	if h.srv == nil {
		return nil
	}
	err := h.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with streams still open — force them closed.
		h.srv.Close()
	}
	<-h.done
	return err
}

// handleIngest accepts an NDJSON batch: one frame per line, each either a
// JSON object {"line": "<raw log line>"} or, for convenience, a bare raw log
// line (anything not starting with '{'). The whole batch runs under one
// producer registration, so a drain never strands half a batch: either the
// batch is rejected with 503 up front, or every accepted line is flushed.
func (h *HTTP) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !h.ing.BeginProduce() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer h.ing.EndProduce()

	// The body goes through the line listener's framer and chunk path: one
	// queue operation per 64 KiB read, not per line, and a body of any size
	// is never held whole.
	var res IngestResult
	err := readLines(r.Body, make([]byte, readBufSize), 0, h.cfg.MaxLineLen, nil, func(lines []string) {
		keep := lines[:0]
		for _, line := range lines {
			if strings.HasPrefix(line, "{") {
				var frame struct {
					Line string `json:"line"`
				}
				if err := json.Unmarshal([]byte(line), &frame); err != nil || frame.Line == "" {
					res.Malformed++
					continue
				}
				line = frame.Line
			}
			keep = append(keep, line)
		}
		accepted := submit(h.ing, h.batch, keep)
		res.Accepted += accepted
		res.Dropped += len(keep) - accepted
	})
	if err != nil {
		http.Error(w, fmt.Sprintf("reading batch: %v", err), http.StatusBadRequest)
		return
	}
	WriteJSON(w, res)
}

func (h *HTTP) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the server is accepting traffic: 503 once a
// drain has begun, so load balancers stop routing before connections break.
func (h *HTTP) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if h.ing.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}
