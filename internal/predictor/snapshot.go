package predictor

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/parser"
)

// Checkpoint support for the daemon's crash recovery: the complete mutable
// state of a Predictor — and, via a quiesce barrier, of a sharded Manager —
// can be serialized and later restored into a freshly built instance over
// the same model, resuming every in-flight parse exactly where it stopped.

// State is the serializable mutable state of a Predictor. It is plain data:
// the rules, scanner and tables are NOT captured (they are deterministic
// functions of the model inputs) — only a fingerprint of the model, so a
// restore into a predictor built from different chains or templates fails
// loudly instead of resuming garbage parses.
type State struct {
	// Fingerprint identifies the model (chains + inventory + options) the
	// state was captured under.
	Fingerprint uint64
	// RulesFingerprint identifies the compiled parse automaton alone. States
	// captured under one model can migrate their parse stacks into another
	// model with the same RulesFingerprint (see Manager.AdoptState). Zero in
	// snapshots written before this field existed.
	RulesFingerprint uint64
	// LinesScanned, Tokens, Discarded are the scanner-level counters.
	LinesScanned int
	Tokens       int
	Discarded    int
	// Drivers holds every per-node parse driver, sorted by node.
	Drivers []parser.DriverState
}

// modelFingerprint hashes everything that determines online behavior:
// chains (names, phrase sequences, per-chain timeouts), the template
// inventory (IDs, patterns, classes), and the construction options.
func modelFingerprint(chains []core.FailureChain, inventory []core.Template, opts Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		io.WriteString(h, s)
	}
	num(int64(len(chains)))
	for _, fc := range chains {
		str(fc.Name)
		num(int64(len(fc.Phrases)))
		for _, p := range fc.Phrases {
			num(int64(p))
		}
		num(int64(fc.Timeout))
	}
	num(int64(len(inventory)))
	for _, t := range inventory {
		num(int64(t.ID))
		str(t.Pattern)
		num(int64(t.Class))
	}
	num(int64(opts.Timeout))
	flags := int64(0)
	if opts.DisableFactoring {
		flags |= 1
	}
	if opts.KeepTerminal {
		flags |= 2
	}
	num(flags)
	return h.Sum64()
}

// rulesFingerprint hashes only what determines the compiled parse automaton:
// the rule chains' phrase sequences (in translation order) and the factoring
// mode. Template patterns, chain names and ΔT timeouts are deliberately
// excluded — they change scanning or timing behavior but not the LALR tables
// a parse stack is validated against.
func rulesFingerprint(ruleChains []core.FailureChain, opts Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	num(int64(len(ruleChains)))
	for _, fc := range ruleChains {
		num(int64(len(fc.Phrases)))
		for _, p := range fc.Phrases {
			num(int64(p))
		}
	}
	if opts.DisableFactoring {
		num(1)
	} else {
		num(0)
	}
	return h.Sum64()
}

// ModelFingerprint computes the fingerprint of a model (chains + inventory +
// options) without building a predictor — the identity key of the model
// registry.
func ModelFingerprint(chains []core.FailureChain, inventory []core.Template, opts Options) uint64 {
	return modelFingerprint(chains, inventory, opts)
}

// FingerprintHex returns the fingerprint in the canonical 16-hex-digit form
// used by the model registry, /statusz and Output.Model.
func (m *Model) FingerprintHex() string { return m.fpHex }

// RulesFingerprint returns the automaton fingerprint (rule phrase sequences +
// factoring mode).
func (m *Model) RulesFingerprint() uint64 { return m.rulesFingerprint }

// Fingerprint returns the model fingerprint (chains + inventory + options).
func (p *Predictor) Fingerprint() uint64 { return p.model.fingerprint }

// RulesFingerprint returns the automaton fingerprint (rule phrase sequences +
// factoring mode).
func (p *Predictor) RulesFingerprint() uint64 { return p.model.rulesFingerprint }

// Snapshot captures the predictor's complete mutable state.
func (p *Predictor) Snapshot() State {
	st := State{
		Fingerprint:      p.model.fingerprint,
		RulesFingerprint: p.model.rulesFingerprint,
		LinesScanned:     p.linesScanned,
		Tokens:           p.tokens,
		Discarded:        p.discarded,
		Drivers:          make([]parser.DriverState, 0, len(p.drivers)),
	}
	for _, d := range p.drivers {
		st.Drivers = append(st.Drivers, d.Snapshot())
	}
	sort.Slice(st.Drivers, func(i, j int) bool { return st.Drivers[i].Node < st.Drivers[j].Node })
	return st
}

// Restore replaces the predictor's mutable state with a previously captured
// one. The state must have been captured under the same model (fingerprint
// checked) and every driver stack is validated against the tables before
// anything is committed — the predictor is unchanged on error.
func (p *Predictor) Restore(st State) error {
	if st.Fingerprint != p.model.fingerprint {
		return fmt.Errorf("predictor: snapshot fingerprint %016x does not match model %016x (different chains, templates or options)",
			st.Fingerprint, p.model.fingerprint)
	}
	drivers := make(map[string]*parser.Driver, len(st.Drivers))
	for _, ds := range st.Drivers {
		if _, dup := drivers[ds.Node]; dup {
			return fmt.Errorf("predictor: snapshot holds node %q twice", ds.Node)
		}
		d := parser.New(p.model.rules, ds.Node)
		if err := d.Restore(ds); err != nil {
			return err
		}
		drivers[ds.Node] = d
	}
	p.drivers = drivers
	p.linesScanned = st.LinesScanned
	p.tokens = st.Tokens
	p.discarded = st.Discarded
	return nil
}

// snapshotVersion versions the gob payload written by Manager.Snapshot.
const snapshotVersion = 1

// managerState is the on-disk form of a Manager snapshot: worker shards are
// merged into one flat state, so a snapshot taken with one worker count
// restores cleanly into a manager with another (nodes re-shard on restore).
type managerState struct {
	Version int
	State   State
}

// ExportState quiesces the manager and returns its complete merged state. It
// first runs a Flush barrier — so every event accepted before the call is
// fully processed and its output received by the Results consumer — then
// captures all worker shards under their locks. The caller must pause
// producers for the duration if it needs the state to correspond to a known
// ingest offset, and must keep the Results consumer running (Flush's markers
// travel through it). The counters include the lines ProcessScanned counted
// as discarded without a worker. Returns ErrClosed after Close.
func (m *Manager) ExportState() (State, error) {
	if err := m.Flush(); err != nil {
		return State{}, err
	}
	merged := State{
		Fingerprint:      m.model.fingerprint,
		RulesFingerprint: m.model.rulesFingerprint,
	}
	for _, mw := range m.workers {
		mw.mu.Lock()
		ws := mw.pred.Snapshot()
		mw.mu.Unlock()
		merged.LinesScanned += ws.LinesScanned
		merged.Tokens += ws.Tokens
		merged.Discarded += ws.Discarded
		merged.Drivers = append(merged.Drivers, ws.Drivers...)
	}
	d := int(m.discarded.Load())
	merged.LinesScanned += d
	merged.Discarded += d
	sort.Slice(merged.Drivers, func(i, j int) bool { return merged.Drivers[i].Node < merged.Drivers[j].Node })
	return merged, nil
}

// Snapshot quiesces the manager (see ExportState) and serializes its complete
// state to w.
func (m *Manager) Snapshot(w io.Writer) error {
	merged, err := m.ExportState()
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(managerState{Version: snapshotVersion, State: merged}); err != nil {
		return fmt.Errorf("predictor: encoding snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshotState reads a Manager.Snapshot stream without loading it into
// a manager, so a caller can inspect the state's fingerprint — e.g. to
// rebuild the matching model version — before choosing the manager to
// ImportState into.
func DecodeSnapshotState(r io.Reader) (State, error) {
	var ms managerState
	if err := gob.NewDecoder(r).Decode(&ms); err != nil {
		return State{}, fmt.Errorf("predictor: decoding snapshot: %w", err)
	}
	if ms.Version != snapshotVersion {
		return State{}, fmt.Errorf("predictor: unsupported snapshot version %d", ms.Version)
	}
	return ms.State, nil
}

// Restore loads a Manager.Snapshot stream into this manager, re-sharding
// nodes across the current worker count (which need not match the count the
// snapshot was taken with). It must be called before any events are
// processed; the fingerprint and every parse stack are validated before
// anything is committed.
func (m *Manager) Restore(r io.Reader) error {
	st, err := DecodeSnapshotState(r)
	if err != nil {
		return err
	}
	return m.ImportState(st)
}

// ImportState loads a previously exported (or migrated) state into this
// manager, re-sharding nodes across the current worker count. It must be
// called before any events are processed; the fingerprint and every parse
// stack are validated before anything is committed.
func (m *Manager) ImportState(st State) error {
	// Split the merged state into per-worker shards using the same hash
	// Process* routes with.
	shards := make([]State, len(m.workers))
	for i := range shards {
		shards[i].Fingerprint = st.Fingerprint
	}
	for _, ds := range st.Drivers {
		wi := fnvIndex(ds.Node, len(m.workers))
		shards[wi].Drivers = append(shards[wi].Drivers, ds)
	}
	// Aggregate counters live on worker 0, the manager's own discard count
	// starting again from 0; Stats() sums them all, so totals come out right
	// regardless of the shard layout.
	shards[0].LinesScanned = st.LinesScanned
	shards[0].Tokens = st.Tokens
	shards[0].Discarded = st.Discarded

	// Restore every shard into a fresh predictor before committing any, so a
	// bad snapshot leaves the manager untouched.
	restored := make([]*Predictor, len(m.workers))
	for i := range m.workers {
		restored[i] = m.model.NewPredictor()
		if err := restored[i].Restore(shards[i]); err != nil {
			return err
		}
	}
	// Commit under every worker's lock at once: Stats, which takes them one
	// at a time, then never adds worker 0's restored aggregate to another
	// worker's live counters.
	for _, mw := range m.workers {
		mw.mu.Lock()
	}
	for i, mw := range m.workers {
		mw.pred = restored[i]
	}
	m.discarded.Store(0)
	for _, mw := range m.workers {
		mw.mu.Unlock()
	}
	return nil
}
