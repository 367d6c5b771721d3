package predictor

import (
	"fmt"

	"repro/internal/parser"
)

// Model migration: when the daemon hot-swaps one model for another, the new
// Manager adopts as much of the old Manager's state as the new model can
// soundly carry. Three tiers, decided per swap:
//
//  1. Identical model (same fingerprint): the full state restores verbatim.
//  2. Identical automaton (same rules fingerprint — e.g. only templates,
//     chain names or ΔT timeouts changed): every per-node parse stack is
//     still valid against the new LALR tables, so in-flight matches survive
//     the swap; the state is re-stamped and restored whole.
//  3. Different automaton: parse stacks from the old tables are meaningless
//     in the new ones. Each node gets a fresh driver at the initial state,
//     but its cumulative counters carry over so /statusz continuity holds;
//     nodes that were mid-match lose that partial parse (counted as Reset).

// MigrationReport says what AdoptState did with the old state.
type MigrationReport struct {
	// StateCarried is true when parse stacks migrated whole (tiers 1 and 2):
	// in-flight partial matches survived the swap.
	StateCarried bool
	// Nodes is the number of per-node drivers in the adopted state.
	Nodes int
	// Migrated counts nodes whose state (or, in tier 3, idle position)
	// carried into the new model unchanged.
	Migrated int
	// Reset counts nodes whose in-flight partial match had to be abandoned
	// because the automaton changed.
	Reset int
}

// AdoptState migrates a state exported from another (typically older)
// Manager into this one. It must be called before this manager processes any
// events. The manager is unchanged on error.
func (m *Manager) AdoptState(st State) (MigrationReport, error) {
	rep := MigrationReport{Nodes: len(st.Drivers)}
	own := m.model

	switch {
	case st.Fingerprint == own.fingerprint:
		// Tier 1: same model — a plain restore.
		if err := m.ImportState(st); err != nil {
			return MigrationReport{}, err
		}
		rep.StateCarried = true
		rep.Migrated = rep.Nodes
		return rep, nil

	case st.RulesFingerprint != 0 && st.RulesFingerprint == own.rulesFingerprint:
		// Tier 2: same compiled automaton — stacks remain valid; re-stamp
		// the state with the new model identity and restore whole.
		restamped := st
		restamped.Fingerprint = own.fingerprint
		restamped.RulesFingerprint = own.rulesFingerprint
		if err := m.ImportState(restamped); err != nil {
			return MigrationReport{}, err
		}
		rep.StateCarried = true
		rep.Migrated = rep.Nodes
		return rep, nil
	}

	// Tier 3: different automaton. Rebuild every node at the initial parse
	// state, preserving its cumulative counters; abandon in-flight matches.
	fresh := State{
		Fingerprint:      own.fingerprint,
		RulesFingerprint: own.rulesFingerprint,
		LinesScanned:     st.LinesScanned,
		Tokens:           st.Tokens,
		Discarded:        st.Discarded,
		Drivers:          make([]parser.DriverState, 0, len(st.Drivers)),
	}
	for _, ds := range st.Drivers {
		init := parser.New(own.rules, ds.Node).Snapshot()
		init.Stats = ds.Stats
		fresh.Drivers = append(fresh.Drivers, init)
		if ds.Active {
			rep.Reset++
		} else {
			rep.Migrated++
		}
	}
	if err := m.ImportState(fresh); err != nil {
		return MigrationReport{}, fmt.Errorf("predictor: migrating state: %w", err)
	}
	return rep, nil
}
