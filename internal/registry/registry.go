// Package registry is the model lifecycle store of the aarohid daemon: a
// versioned, content-addressed collection of predictor models (failure
// chains + template inventory + construction options), keyed by the
// predictor fingerprint, with an atomically replaced manifest naming the
// active version and the rollback history.
//
// The paper is explicit that failure chains evolve with the system — Phase 1
// retrains as logs drift, and Aarohi "can accommodate newly trained FCs" by
// regenerating the scanner and parser. The registry turns that one-shot
// re-generation into a lifecycle: models are *admitted* (vet-gated — uploads
// whose static-analysis report contains errors are rejected with the report),
// *activated* (the daemon hot-swaps to them), and *rolled back* (the manifest
// keeps the activation history).
//
// On disk (rooted at <data-dir>/models):
//
//	models/
//	  MANIFEST.json            — {base, active, history[]}, temp+rename+fsync
//	  <fingerprint>.model.json — {meta, model}, content-addressed, immutable
//
// A Registry opened with an empty dir keeps everything in memory — the same
// lifecycle without persistence, for embedded servers and tests.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/vet"
)

// ErrRejected is returned by Put when the vet gate finds error-severity
// defects; the accompanying report says why.
var ErrRejected = errors.New("registry: model rejected by vet")

// ErrNotFound is returned when a fingerprint names no stored model.
var ErrNotFound = errors.New("registry: model not found")

// Model is the unit of storage: everything needed to rebuild a predictor.
type Model struct {
	Chains    []core.FailureChain `json:"chains"`
	Templates []core.Template     `json:"templates"`
	Options   predictor.Options   `json:"options"`
}

// Fingerprint returns the model's identity in the canonical 16-hex-digit
// form (the predictor fingerprint over chains + inventory + options).
func (m *Model) Fingerprint() string {
	return FormatFingerprint(predictor.ModelFingerprint(m.Chains, m.Templates, m.Options))
}

// FormatFingerprint renders a raw fingerprint in the canonical hex form.
func FormatFingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// Entry describes one stored model version.
type Entry struct {
	// Fingerprint is the content address (predictor model fingerprint, hex).
	Fingerprint string `json:"fingerprint"`
	// RulesFingerprint identifies the compiled parse automaton; versions
	// sharing it hot-swap with full parse-state migration.
	RulesFingerprint string `json:"rules_fingerprint"`
	// Chains and Templates are the model's sizes, for listings.
	Chains    int `json:"chains"`
	Templates int `json:"templates"`
	// CreatedAt is when the version was first admitted.
	CreatedAt time.Time `json:"created_at"`
	// Source says how the version arrived: "boot", "upload", "reload".
	Source string `json:"source,omitempty"`
	// VetWarnings counts warning-severity findings at admission (errors are
	// impossible — they reject the upload).
	VetWarnings int `json:"vet_warnings"`
}

// manifest is the atomically replaced activation record.
type manifest struct {
	Version int `json:"version"`
	// Base is the active fingerprint at the moment the store was created —
	// the model the daemon's journal began under (WAL epoch records track
	// every later change in-band).
	Base string `json:"base,omitempty"`
	// Active is the currently active fingerprint ("" before first
	// activation).
	Active string `json:"active,omitempty"`
	// History holds previously active fingerprints, oldest first; Rollback
	// pops the most recent.
	History []string `json:"history,omitempty"`
}

const (
	manifestVersion = 1
	manifestName    = "MANIFEST.json"
	modelSuffix     = ".model.json"
	historyCap      = 32
	// compiledCap bounds the compiled forms the registry keeps, so its
	// memory does not grow with the versions it stores. Four covers what one
	// swap, shadow or rollback needs next, and the shards of one daemon
	// replaying a journal tail that names up to four versions.
	compiledCap = 4
)

// modelFile is the on-disk form of one version.
type modelFile struct {
	Meta  Entry `json:"meta"`
	Model Model `json:"model"`
}

// Registry is the store. Safe for concurrent use.
type Registry struct {
	dir string // "" → memory-only

	mu       sync.Mutex
	entries  map[string]Entry
	models   map[string]*Model
	manifest manifest

	// compiled holds the compiled forms of the versions used last, least
	// recently used first, at most compiledCap of them. A form that drops
	// out stays alive as long as a manager runs it.
	compiled []compiledForm
	// vetTimes records how long admission vetted each version this process
	// admitted (in memory only: the model files keep their bytes).
	vetTimes map[string]time.Duration
}

// compiledForm is one compiled version, keyed by its registry fingerprint.
type compiledForm struct {
	fp    string
	model *predictor.Model
}

// Open loads (creating if needed) the registry rooted at dir. An empty dir
// yields a memory-only registry.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		dir:      dir,
		entries:  map[string]Entry{},
		models:   map[string]*Model{},
		manifest: manifest{Version: manifestVersion},
		vetTimes: map[string]time.Duration{},
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || len(name) != 16+len(modelSuffix) || name[16:] != modelSuffix {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		var mf modelFile
		if err := json.Unmarshal(data, &mf); err != nil {
			return nil, fmt.Errorf("registry: decoding %s: %w", name, err)
		}
		fp := name[:16]
		if mf.Meta.Fingerprint != fp {
			return nil, fmt.Errorf("registry: %s holds fingerprint %q", name, mf.Meta.Fingerprint)
		}
		model := mf.Model
		r.entries[fp] = mf.Meta
		r.models[fp] = &model
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store; the zero manifest stands.
	case err != nil:
		return nil, fmt.Errorf("registry: %w", err)
	default:
		man, err := decodeManifest(data)
		if err != nil {
			return nil, err
		}
		r.manifest = man
	}
	return r, nil
}

// decodeManifest parses and validates a manifest document.
func decodeManifest(data []byte) (manifest, error) {
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, fmt.Errorf("registry: decoding manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return manifest{}, fmt.Errorf("registry: unsupported manifest version %d", man.Version)
	}
	for _, fp := range append([]string{man.Base, man.Active}, man.History...) {
		if fp != "" && !validFingerprint(fp) {
			return manifest{}, fmt.Errorf("registry: manifest names invalid fingerprint %q", fp)
		}
	}
	if len(man.History) > historyCap {
		return manifest{}, fmt.Errorf("registry: manifest history of %d exceeds cap %d", len(man.History), historyCap)
	}
	// Canonicalize: an explicit empty history decodes the same as an absent
	// one, so accepted manifests round-trip through omitempty re-encoding.
	if len(man.History) == 0 {
		man.History = nil
	}
	return man, nil
}

func validFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeFileAtomic writes data to path via temp + fsync + rename.
func writeFileAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".reg-*.tmp")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// saveManifest persists the in-memory manifest (caller holds r.mu).
func (r *Registry) saveManifest() error {
	if r.dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(r.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return writeFileAtomic(r.dir, filepath.Join(r.dir, manifestName), data)
}

// Put admits a model version. Admission is content-addressed and idempotent:
// the fingerprint is computed first, and re-putting a stored version returns
// its entry immediately (vet already passed at first admission; the report is
// nil on such cache hits). For new fingerprints the vet gate runs — error
// severity findings reject the upload with ErrRejected and the report — then
// the model is compiled so only compilable models are stored. The compiled
// form is kept for the swap or shadow start that usually follows.
func (r *Registry) Put(m Model, source string) (Entry, *vet.Report, error) {
	return r.put(m, nil, source)
}

// PutCompiled is Put for a model the caller already compiled: it admits the
// chains, inventory and options compiled was built from and keeps that form
// instead of compiling its own.
func (r *Registry) PutCompiled(compiled *predictor.Model, source string) (Entry, *vet.Report, error) {
	chains, templates, opts := compiled.Source()
	return r.put(Model{Chains: chains, Templates: templates, Options: opts}, compiled, source)
}

// put admits m; compiled, when non-nil, is m's compiled form.
func (r *Registry) put(m Model, compiled *predictor.Model, source string) (Entry, *vet.Report, error) {
	fp := m.Fingerprint()
	r.mu.Lock()
	if e, ok := r.entries[fp]; ok {
		if compiled != nil {
			r.keepLocked(fp, compiled)
		}
		r.mu.Unlock()
		return e, nil, nil
	}
	r.mu.Unlock()

	began := time.Now()
	report, err := vet.Run(vet.Model{Chains: m.Chains, Templates: m.Templates}, vet.Config{
		Timeout:          m.Options.Timeout,
		DisableFactoring: m.Options.DisableFactoring,
	})
	if err != nil {
		return Entry{}, nil, fmt.Errorf("registry: vetting model: %w", err)
	}
	vetTime := time.Since(began)
	if n := report.Count(vet.Error); n > 0 {
		return Entry{}, report, fmt.Errorf("%w: %d error finding(s)", ErrRejected, n)
	}
	if compiled == nil {
		// Vet approval is necessary but not sufficient (e.g. a chain phrase
		// missing from the inventory is a construction error).
		if compiled, err = predictor.Compile(m.Chains, m.Templates, m.Options); err != nil {
			return Entry{}, report, fmt.Errorf("registry: model does not compile: %w", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[fp]; ok {
		// Admitted concurrently while vet ran.
		return e, report, nil
	}
	e := Entry{
		Fingerprint:      fp,
		RulesFingerprint: FormatFingerprint(compiled.RulesFingerprint()),
		Chains:           len(m.Chains),
		Templates:        len(m.Templates),
		CreatedAt:        time.Now().UTC(),
		Source:           source,
		VetWarnings:      report.Count(vet.Warning),
	}
	stored := Model{
		Chains:    append([]core.FailureChain(nil), m.Chains...),
		Templates: append([]core.Template(nil), m.Templates...),
		Options:   m.Options,
	}
	if r.dir != "" {
		data, err := json.MarshalIndent(modelFile{Meta: e, Model: stored}, "", "  ")
		if err != nil {
			return Entry{}, report, fmt.Errorf("registry: %w", err)
		}
		if err := writeFileAtomic(r.dir, filepath.Join(r.dir, fp+modelSuffix), data); err != nil {
			return Entry{}, report, err
		}
	}
	r.entries[fp] = e
	r.models[fp] = &stored
	r.vetTimes[fp] = vetTime
	r.keepLocked(fp, compiled)
	return e, report, nil
}

// Compiled returns the compiled form of a stored version, compiling it only
// when the registry does not hold it already — so the shards of a swap, a
// shadow start, a rollback or a replayed epoch record all share one form.
func (r *Registry) Compiled(fp string) (*predictor.Model, error) {
	r.mu.Lock()
	if c := r.cachedLocked(fp); c != nil {
		r.mu.Unlock()
		return c, nil
	}
	m, ok := r.models[fp]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	c, err := predictor.Compile(m.Chains, m.Templates, m.Options)
	if err != nil {
		return nil, fmt.Errorf("registry: model %s does not compile: %w", fp, err)
	}
	if got := c.FingerprintHex(); got != fp {
		return nil, fmt.Errorf("registry: stored model %s compiles to fingerprint %s", fp, got)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior := r.cachedLocked(fp); prior != nil {
		return prior, nil // compiled concurrently; keep one form per version
	}
	r.keepLocked(fp, c)
	return c, nil
}

// cachedLocked returns fp's compiled form, marking it most recently used, or
// nil (caller holds r.mu).
func (r *Registry) cachedLocked(fp string) *predictor.Model {
	for i, cf := range r.compiled {
		if cf.fp == fp {
			copy(r.compiled[i:], r.compiled[i+1:])
			r.compiled[len(r.compiled)-1] = cf
			return cf.model
		}
	}
	return nil
}

// keepLocked stores m as fp's compiled form, most recently used, dropping
// the least recently used past compiledCap (caller holds r.mu).
func (r *Registry) keepLocked(fp string, m *predictor.Model) {
	kept := r.compiled[:0]
	for _, cf := range r.compiled {
		if cf.fp != fp {
			kept = append(kept, cf)
		}
	}
	kept = append(kept, compiledForm{fp: fp, model: m})
	if len(kept) > compiledCap {
		n := copy(kept, kept[len(kept)-compiledCap:])
		clear(kept[n:])
		kept = kept[:n]
	}
	r.compiled = kept
}

// VetTime reports how long admission vetted fp, or 0 when this process did
// not vet it (a version admitted before the last restart).
func (r *Registry) VetTime(fp string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vetTimes[fp]
}

// Get returns the stored model and entry for a fingerprint.
func (r *Registry) Get(fp string) (*Model, Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[fp]
	if !ok {
		return nil, Entry{}, fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	e := r.entries[fp]
	cp := *m
	return &cp, e, nil
}

// List returns every stored version, oldest first (ties broken by
// fingerprint).
func (r *Registry) List() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Active returns the active fingerprint ("" when nothing is active yet).
func (r *Registry) Active() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.manifest.Active
}

// Base returns the fingerprint that was active when the store was created —
// the model the daemon's journal began under.
func (r *Registry) Base() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.manifest.Base
}

// Activate marks fp active, pushing the previous active onto the rollback
// history, and persists the manifest atomically. Activating the already
// active version is a no-op.
func (r *Registry) Activate(fp string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[fp]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	if r.manifest.Active == fp {
		return nil
	}
	prev := r.manifest
	if r.manifest.Active != "" {
		r.manifest.History = append(r.manifest.History, r.manifest.Active)
		if len(r.manifest.History) > historyCap {
			r.manifest.History = r.manifest.History[len(r.manifest.History)-historyCap:]
		}
	}
	if r.manifest.Base == "" {
		r.manifest.Base = fp
	}
	r.manifest.Active = fp
	if err := r.saveManifest(); err != nil {
		r.manifest = prev
		return err
	}
	return nil
}

// RollbackTarget peeks at the version a Rollback would activate, without
// changing anything. ok is false when there is no history to roll back to.
func (r *Registry) RollbackTarget() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.manifest.History) == 0 {
		return "", false
	}
	return r.manifest.History[len(r.manifest.History)-1], true
}

// Rollback re-activates the most recently superseded version, popping it
// from the history (so repeated rollbacks walk further back), and returns
// its fingerprint.
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.manifest.History) == 0 {
		return "", fmt.Errorf("registry: no version to roll back to")
	}
	prev := r.manifest
	fp := r.manifest.History[len(r.manifest.History)-1]
	if _, ok := r.entries[fp]; !ok {
		return "", fmt.Errorf("%w: rollback target %s", ErrNotFound, fp)
	}
	r.manifest.History = r.manifest.History[:len(r.manifest.History)-1]
	r.manifest.Active = fp
	if err := r.saveManifest(); err != nil {
		r.manifest = prev
		return "", err
	}
	return fp, nil
}
