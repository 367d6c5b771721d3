package registry

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/vet"
)

// xc30Model returns the XC30 dialect model with the given ΔT override — a
// convenient way to mint distinct fingerprints over the same automaton.
func xc30Model(timeout time.Duration) Model {
	return Model{
		Chains:    loggen.DialectXC30.Chains(),
		Templates: loggen.DialectXC30.Inventory(),
		Options:   predictor.Options{Timeout: timeout},
	}
}

func TestPutActivateRollback(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	a := xc30Model(0)
	b := xc30Model(5 * time.Minute)

	ea, rep, err := r.Put(a, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("Put returned nil vet report for accepted model")
	}
	eb, _, err := r.Put(b, "upload")
	if err != nil {
		t.Fatal(err)
	}
	if ea.Fingerprint == eb.Fingerprint {
		t.Fatal("distinct options produced the same fingerprint")
	}
	if ea.RulesFingerprint != eb.RulesFingerprint {
		t.Error("ΔT-only change altered the rules fingerprint")
	}

	// Idempotent re-put returns the stored entry.
	again, _, err := r.Put(a, "upload")
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != ea.Fingerprint || again.Source != "boot" {
		t.Errorf("re-put returned %+v, want original entry", again)
	}

	if got := r.List(); len(got) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(got))
	}
	if _, _, err := r.Get("0000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if err := r.Activate("0000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Activate(unknown) = %v, want ErrNotFound", err)
	}

	if err := r.Activate(ea.Fingerprint); err != nil {
		t.Fatal(err)
	}
	if r.Active() != ea.Fingerprint || r.Base() != ea.Fingerprint {
		t.Fatalf("after first activation: active=%s base=%s", r.Active(), r.Base())
	}
	if _, ok := r.RollbackTarget(); ok {
		t.Error("rollback target exists before any supersession")
	}
	if err := r.Activate(eb.Fingerprint); err != nil {
		t.Fatal(err)
	}
	if tgt, ok := r.RollbackTarget(); !ok || tgt != ea.Fingerprint {
		t.Fatalf("RollbackTarget = %q,%v, want %q", tgt, ok, ea.Fingerprint)
	}
	fp, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if fp != ea.Fingerprint || r.Active() != ea.Fingerprint {
		t.Fatalf("rollback went to %s, want %s", fp, ea.Fingerprint)
	}
	if _, err := r.Rollback(); err == nil {
		t.Error("second rollback succeeded with empty history")
	}
	// Base never moves after the first activation.
	if r.Base() != ea.Fingerprint {
		t.Errorf("base drifted to %s", r.Base())
	}
}

func TestVetGateRejects(t *testing.T) {
	r, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	m := xc30Model(0)
	// A chain phrase absent from the inventory is an error-severity vet
	// finding: the upload must be rejected with the report attached.
	m.Chains = append(m.Chains, core.FailureChain{
		Name:    "phantom",
		Phrases: []core.PhraseID{9999, 9998},
	})
	_, rep, err := r.Put(m, "upload")
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Put = %v, want ErrRejected", err)
	}
	if rep == nil || rep.Count(vet.Error) == 0 {
		t.Fatalf("rejection carried report %+v, want error findings", rep)
	}
	if len(r.List()) != 0 {
		t.Error("rejected model was stored")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ea, _, err := r.Put(xc30Model(0), "boot")
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := r.Put(xc30Model(5*time.Minute), "upload")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(ea.Fingerprint); err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(eb.Fingerprint); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: entries, models, and the manifest all survive.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.List(); len(got) != 2 {
		t.Fatalf("reopened registry lists %d entries, want 2", len(got))
	}
	if r2.Active() != eb.Fingerprint || r2.Base() != ea.Fingerprint {
		t.Fatalf("reopened manifest: active=%s base=%s", r2.Active(), r2.Base())
	}
	m, e, err := r2.Get(ea.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if e.Source != "boot" || len(m.Chains) != len(loggen.DialectXC30.Chains()) {
		t.Errorf("reloaded entry %+v with %d chains", e, len(m.Chains))
	}
	// The reloaded model still compiles to the same fingerprint.
	if m.Fingerprint() != ea.Fingerprint {
		t.Errorf("reloaded model fingerprints as %s, want %s", m.Fingerprint(), ea.Fingerprint)
	}
	// Rollback works across the reopen, using the persisted history.
	fp, err := r2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if fp != ea.Fingerprint {
		t.Fatalf("post-reopen rollback went to %s, want %s", fp, ea.Fingerprint)
	}
}

// TestCompiledFormsBounded: admission keeps the form it compiled, Compiled
// hands the same form to every caller while the registry holds it, and the
// registry holds at most compiledCap forms however many versions it stores.
func TestCompiledFormsBounded(t *testing.T) {
	r, err := Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	var fps []string
	for i := 0; i < compiledCap+3; i++ {
		e, _, err := r.Put(xc30Model(time.Duration(i+1)*time.Minute), "upload")
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, e.Fingerprint)
		if len(r.compiled) > compiledCap {
			t.Fatalf("after %d versions the registry holds %d compiled forms, cap %d", i+1, len(r.compiled), compiledCap)
		}
		if r.VetTime(e.Fingerprint) <= 0 {
			t.Errorf("version %d: admission vet time not recorded", i)
		}
	}
	last := fps[len(fps)-1]
	a, err := r.Compiled(last)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Compiled(last); a != b {
		t.Fatal("Compiled recompiled a version the registry holds")
	}
	// The oldest version was dropped: asking for it compiles it again, and
	// the set stays within the cap.
	old, err := r.Compiled(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	if old.FingerprintHex() != fps[0] || len(r.compiled) != compiledCap {
		t.Fatalf("recompiled %s with %d forms held", old.FingerprintHex(), len(r.compiled))
	}
	if _, err := r.Compiled("0000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Compiled(unknown) = %v, want ErrNotFound", err)
	}

	// A caller that already compiled a version hands its form to admission.
	m := xc30Model(time.Hour)
	own, err := predictor.Compile(m.Chains, m.Templates, m.Options)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := r.PutCompiled(own, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Compiled(e.Fingerprint); got != own {
		t.Error("PutCompiled did not keep the caller's compiled form")
	}
	if e.Fingerprint != m.Fingerprint() {
		t.Errorf("PutCompiled admitted %s, the model it was compiled from is %s", e.Fingerprint, m.Fingerprint())
	}
	if got, _, err := r.Get(e.Fingerprint); err != nil || got.Fingerprint() != e.Fingerprint {
		t.Errorf("stored model %v fingerprints elsewhere than %s (%v)", got, e.Fingerprint, err)
	}
}
