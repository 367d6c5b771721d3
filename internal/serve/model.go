package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/serve/transport"
	"repro/internal/vet"
)

// Model lifecycle: the lifecycle Group owns a model registry (persisted under
// <data-dir>/models, memory-only without a data dir) whose boot version is
// the model of the Manager passed to New, and the server exposes upload /
// activate / rollback / shadow over the admin HTTP API. Activation is a zero-loss hot-swap across every shard:
//
//  1. The new Managers are built cold, off the ingest path, over the
//     version's one compiled form (registry.Compiled), shared by every shard.
//  2. Each shard's submitter is paused at a batch boundary (its snapMu) — the
//     queue keeps buffering under the configured overflow policy, so in
//     Block mode no accepted line is ever lost.
//  3. The old Manager is flushed (every output for accepted lines published)
//     and its state exported; the new Manager adopts it — whole parse stacks
//     when the compiled automaton is unchanged (same rules fingerprint),
//     per-node reset with counter continuity otherwise.
//  4. A model-epoch record is appended to the shard's WAL and force-synced —
//     the durable commit point — then, after every shard swaps, the registry
//     manifest is updated once.
//  5. The managers swap atomically and the submitter resumes on the new one.
//
// Boot recovery replays each shard's journal against the model version that
// was live when it was written, and the Group aligns shards whose journals
// diverged (a crash between per-shard swaps). See lifecycle.Group.

// Registry exposes the model store.
func (s *Server) Registry() *registry.Registry { return s.group.Registry() }

// LoadModel admits a model version (vet-gated; ErrRejected carries the
// report) and optionally hot-swaps every shard to it. This is the engine
// behind POST /model and the SIGHUP/-watch reload path.
func (s *Server) LoadModel(m registry.Model, source string, activate bool) (registry.Entry, *vet.Report, *SwapReport, error) {
	return s.group.LoadModel(m, source, activate)
}

// ActivateModel hot-swaps to an already-admitted version.
func (s *Server) ActivateModel(fp string) (*SwapReport, error) {
	return s.group.ActivateModel(fp)
}

// RollbackModel hot-swaps back to the most recently superseded version.
func (s *Server) RollbackModel() (*SwapReport, error) {
	return s.group.RollbackModel()
}

// StartShadow begins evaluating an admitted version in parallel on the live
// stream, on every shard. The shadow adopts the primary's current parse
// state (whole when the automaton matches), then receives every accepted
// line the primary does; its predictions feed the agreement tracker, never
// subscribers.
func (s *Server) StartShadow(fp string) (*ShadowStatus, error) {
	return s.group.StartShadow(fp)
}

// StopShadow discards the running shadow and returns its final report.
func (s *Server) StopShadow() (*ShadowStatus, error) {
	return s.group.StopShadow()
}

// --- admin HTTP API ---

// ModelUpload is the POST /model request body.
type ModelUpload struct {
	Chains    []core.FailureChain `json:"chains"`
	Templates []core.Template     `json:"templates"`
	Options   predictor.Options   `json:"options"`
	// Activate hot-swaps to the model immediately after admission.
	Activate bool `json:"activate,omitempty"`
	// Shadow starts the model in shadow evaluation after admission.
	Shadow bool `json:"shadow,omitempty"`
}

// uploadCaps bound a single upload so a hostile body cannot exhaust memory
// downstream of the JSON decoder.
const (
	maxUploadChains    = 4096
	maxUploadTemplates = 65536
)

// decodeModelUpload parses and validates a POST /model body.
func decodeModelUpload(data []byte) (ModelUpload, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var up ModelUpload
	if err := dec.Decode(&up); err != nil {
		return ModelUpload{}, fmt.Errorf("decoding model: %w", err)
	}
	if dec.More() {
		return ModelUpload{}, fmt.Errorf("decoding model: trailing data after document")
	}
	if len(up.Chains) == 0 {
		return ModelUpload{}, fmt.Errorf("model has no chains")
	}
	if len(up.Templates) == 0 {
		return ModelUpload{}, fmt.Errorf("model has no templates")
	}
	if len(up.Chains) > maxUploadChains {
		return ModelUpload{}, fmt.Errorf("model has %d chains (cap %d)", len(up.Chains), maxUploadChains)
	}
	if len(up.Templates) > maxUploadTemplates {
		return ModelUpload{}, fmt.Errorf("model has %d templates (cap %d)", len(up.Templates), maxUploadTemplates)
	}
	if up.Activate && up.Shadow {
		return ModelUpload{}, fmt.Errorf("activate and shadow are mutually exclusive")
	}
	return up, nil
}

// ModelUploadResult is the POST /model response body.
type ModelUploadResult struct {
	Model registry.Entry `json:"model"`
	// Vet is the admission report (also returned on rejection).
	Vet *vet.Report `json:"vet,omitempty"`
	// Swap is present when the upload requested immediate activation.
	Swap *SwapReport `json:"swap,omitempty"`
	// Shadow is present when the upload requested shadow evaluation.
	Shadow *ShadowStatus `json:"shadow,omitempty"`
}

// ModelsList is the GET /models response body.
type ModelsList struct {
	Active         string           `json:"active"`
	Base           string           `json:"base,omitempty"`
	RollbackTarget string           `json:"rollback_target,omitempty"`
	Shadow         string           `json:"shadow,omitempty"`
	Versions       []registry.Entry `json:"versions"`
}

func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	body, err := transport.ReadBody(r, 32<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	up, err := decodeModelUpload(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	entry, rep, sw, err := s.LoadModel(registry.Model{
		Chains: up.Chains, Templates: up.Templates, Options: up.Options,
	}, "upload", up.Activate)
	if err != nil {
		if errors.Is(err, registry.ErrRejected) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "vet": rep})
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := ModelUploadResult{Model: entry, Vet: rep, Swap: sw}
	if up.Shadow {
		st, err := s.StartShadow(entry.Fingerprint)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		res.Shadow = st
	}
	w.WriteHeader(http.StatusCreated)
	transport.WriteJSONBody(w, res)
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	reg := s.group.Registry()
	list := ModelsList{
		Active:   reg.Active(),
		Base:     reg.Base(),
		Versions: reg.List(),
	}
	if tgt, ok := reg.RollbackTarget(); ok {
		list.RollbackTarget = tgt
	}
	if st := s.group.ShadowStatus(); st != nil {
		list.Shadow = st.Fingerprint
	}
	transport.WriteJSON(w, list)
}

func (s *Server) handleModelActivate(w http.ResponseWriter, r *http.Request) {
	fp, ok := decodeFingerprintBody(w, r)
	if !ok {
		return
	}
	sw, err := s.ActivateModel(fp)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	transport.WriteJSON(w, sw)
}

func (s *Server) handleModelRollback(w http.ResponseWriter, _ *http.Request) {
	sw, err := s.RollbackModel()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	transport.WriteJSON(w, sw)
}

func (s *Server) handleShadowStart(w http.ResponseWriter, r *http.Request) {
	fp, ok := decodeFingerprintBody(w, r)
	if !ok {
		return
	}
	st, err := s.StartShadow(fp)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, registry.ErrNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	transport.WriteJSON(w, st)
}

func (s *Server) handleShadowStop(w http.ResponseWriter, _ *http.Request) {
	st, err := s.StopShadow()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	transport.WriteJSON(w, st)
}

func decodeFingerprintBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	body, err := transport.ReadBody(r, 4096)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", false
	}
	var req struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return "", false
	}
	if req.Fingerprint == "" {
		http.Error(w, "missing fingerprint", http.StatusBadRequest)
		return "", false
	}
	return req.Fingerprint, true
}
