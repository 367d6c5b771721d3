package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/wal"
)

// Durability: when Config.Dir is set, every submitted line is appended to a
// write-ahead journal before it reaches the Manager — a line counted with
// CountDiscarded as a 2-byte discard mark — and the Manager's
// complete parse state is periodically checkpointed. Open loads the newest
// valid snapshot and replays the journal tail through the Manager — before
// any listener opens — so a SIGKILL at any instant costs at most the lines
// the fsync policy permits, and never a mid-flight parse.
//
// Consistency protocol: the submitter holds snapMu around each (WAL append,
// ProcessLineBatch) pair; a snapshot takes snapMu, reads the WAL tip, runs the
// Manager's Flush barrier (every output for lines ≤ tip published), and only
// then serializes. The snapshot therefore never covers an output that has
// not already been delivered to subscribers, and always covers exactly the
// lines up to its recorded offset.

// WALStatus is the /statusz journal block.
type WALStatus struct {
	Enabled           bool   `json:"enabled"`
	Sync              string `json:"sync"`
	FirstIndex        uint64 `json:"first_index"`
	LastIndex         uint64 `json:"last_index"`
	Segments          int    `json:"segments"`
	SnapshotsWritten  int64  `json:"snapshots_written"`
	LastSnapshotIndex uint64 `json:"last_snapshot_index"`
}

// Add folds another shard's journal block into w and returns the result (a
// nil block is absent; w is copied before its first change). Each journal
// numbers its records from 1, so indices and counts sum; first_index, the
// oldest retained record, takes the minimum.
func (w *WALStatus) Add(o *WALStatus) *WALStatus {
	if o == nil {
		return w
	}
	if w == nil {
		c := *o
		return &c
	}
	w.Enabled = w.Enabled || o.Enabled
	w.FirstIndex = min(w.FirstIndex, o.FirstIndex)
	w.LastIndex += o.LastIndex
	w.Segments += o.Segments
	w.SnapshotsWritten += o.SnapshotsWritten
	w.LastSnapshotIndex += o.LastSnapshotIndex
	return w
}

// RecoveryStatus is the /statusz recovery block, describing what boot-time
// replay did.
type RecoveryStatus struct {
	Performed        bool    `json:"performed"`
	SnapshotIndex    uint64  `json:"snapshot_index"`
	ReplayedRecords  uint64  `json:"replayed_records"`
	ReplayErrors     uint64  `json:"replay_errors"`
	RecoveredOutputs int     `json:"recovered_outputs"`
	DurationSeconds  float64 `json:"duration_seconds"`
	// DurationSeconds splits into loading the snapshot (file read, model
	// rebuild, state import) and the journal (tail scan, replay, output
	// barrier); ReplayBytes is the record payload replayed.
	SnapshotLoadSeconds float64 `json:"snapshot_load_seconds,omitempty"`
	ReplaySeconds       float64 `json:"replay_seconds,omitempty"`
	ReplayBytes         uint64  `json:"replay_bytes,omitempty"`
	// ReplayedSwaps counts model-epoch records re-executed during replay:
	// each journal segment was replayed against the model version that was
	// live when it was written.
	ReplayedSwaps uint64 `json:"replayed_swaps,omitempty"`
	// ReplayTokens counts the replayed lines that tokenized — the only ones
	// that reached the parser; over ReplayedRecords it is the restart's
	// FC-related fraction (the paper's Fig. 12).
	ReplayTokens uint64 `json:"replay_tokens,omitempty"`
	// ReplayedMarks counts the replayed discard marks: lines the live run
	// dropped at the edge and journaled as a 2-byte mark instead of in full.
	// They are part of ReplayedRecords and were never scanned again.
	ReplayedMarks uint64 `json:"replayed_marks,omitempty"`
}

// Add folds another shard's recovery block into r and returns the result,
// the way WALStatus.Add does: performed if either was, everything else sums
// (boot opens the shards one after another, so durations add up too).
func (r *RecoveryStatus) Add(o *RecoveryStatus) *RecoveryStatus {
	if o == nil {
		return r
	}
	if r == nil {
		c := *o
		return &c
	}
	r.Performed = r.Performed || o.Performed
	r.SnapshotIndex += o.SnapshotIndex
	r.ReplayedRecords += o.ReplayedRecords
	r.ReplayErrors += o.ReplayErrors
	r.RecoveredOutputs += o.RecoveredOutputs
	r.DurationSeconds += o.DurationSeconds
	r.SnapshotLoadSeconds += o.SnapshotLoadSeconds
	r.ReplaySeconds += o.ReplaySeconds
	r.ReplayBytes += o.ReplayBytes
	r.ReplayedSwaps += o.ReplayedSwaps
	r.ReplayTokens += o.ReplayTokens
	r.ReplayedMarks += o.ReplayedMarks
	return r
}

func (l *Local) walDir() string  { return filepath.Join(l.cfg.Dir, "wal") }
func (l *Local) snapDir() string { return filepath.Join(l.cfg.Dir, "snapshots") }

// Open loads the newest valid snapshot into the Manager, opens the journal,
// and replays the tail. No-op without a data dir. Called by the lifecycle
// layer before any listener binds; the fan-out must already be running
// (replay outputs travel through it into the recovered buffer, and the
// snapshot barrier needs its acks). reg resolves the model fingerprints
// that snapshots, the manifest's base and epoch records name (modelFor); a
// caller that runs one model only may pass nil. Manifest reconciliation is
// the caller's job — Open reports what the journal converged on via
// Manager().FingerprintHex().
func (l *Local) Open(reg *registry.Registry) error {
	if l.cfg.Dir == "" {
		return nil
	}
	l.registry = reg
	if err := os.MkdirAll(l.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: data dir: %w", err)
	}
	began := time.Now()
	rec := RecoveryStatus{}

	off, payload, ok, err := wal.LatestSnapshot(l.snapDir())
	if err != nil {
		return fmt.Errorf("serve: loading snapshot: %w", err)
	}
	// With the arbiter enabled the payload is a framed container holding
	// both states; a legacy payload is all manager (arbPayload empty).
	var arbPayload []byte
	if ok {
		payload, arbPayload, err = splitSnapshotPayload(payload)
		if err != nil {
			return fmt.Errorf("serve: reading snapshot (offset %d): %w", off, err)
		}
	}
	// The journal tail begins under the model the snapshot was taken under,
	// or, without one, under the manifest's base: switch to it if it is not
	// the one the shard booted with, so the state imports into matching
	// tables and the tail replays against the right automaton.
	var st predictor.State
	fp := ""
	if ok {
		if st, err = predictor.DecodeSnapshotState(bytes.NewReader(payload)); err != nil {
			return fmt.Errorf("serve: reading snapshot (offset %d): %w", off, err)
		}
		fp = registry.FormatFingerprint(st.Fingerprint)
	}
	model, err := l.modelFor(fp)
	switch {
	case err != nil && ok:
		return fmt.Errorf("serve: snapshot (offset %d) was taken under model %s: %w", off, fp, err)
	case err != nil:
		return fmt.Errorf("serve: the model the journal began under: %w", err)
	case model != l.Manager().Model():
		l.bootSwitchModel(model)
	}
	if ok {
		if err := l.Manager().ImportState(st); err != nil {
			return fmt.Errorf("serve: restoring snapshot (offset %d): %w", off, err)
		}
		rec.Performed = true
		rec.SnapshotIndex = off
	}
	// The arbiter restores before replay for the same reason the manager
	// does: the journal tail then re-fires its heartbeats and outputs on top
	// of exactly the state the snapshot captured.
	if l.arb != nil && len(arbPayload) > 0 {
		if err := l.arb.Restore(bytes.NewReader(arbPayload)); err != nil {
			return fmt.Errorf("serve: restoring arbiter snapshot (offset %d): %w", off, err)
		}
	}

	rec.SnapshotLoadSeconds = time.Since(began).Seconds()
	replayBegan := time.Now()

	// Open the journal and replay its tail in one read of it (replay.go). The
	// listeners are not open yet, so the only producer is the replay; outputs
	// are captured in the recovered buffer by the fan-out for
	// /predictions?replay=recovered. A journal that ends before the snapshot
	// replays nothing, so it is refused only now.
	l.recoveryActive.Store(true)
	wl, err := l.replayJournal(off+1, &rec)
	if err != nil {
		return fmt.Errorf("serve: replaying journal: %w", err)
	}
	if last := wl.LastIndex(); last < off {
		_ = wl.Close() // unwinding: the consistency error below is the one to surface
		return fmt.Errorf("serve: snapshot covers WAL offset %d but journal ends at %d: data dir is inconsistent", off, last)
	}
	if rec.ReplayedRecords > 0 {
		rec.Performed = true
	}
	// Barrier: every replayed output is in the recovered buffer before the
	// daemon reports ready.
	if err := l.Manager().Flush(); err != nil {
		_ = wl.Close() // unwinding: the flush error is the one to surface
		return fmt.Errorf("serve: flushing replay: %w", err)
	}
	l.recoveryActive.Store(false)

	l.recMu.Lock()
	rec.RecoveredOutputs = len(l.recovered)
	l.recMu.Unlock()
	rec.ReplaySeconds = time.Since(replayBegan).Seconds()
	rec.DurationSeconds = time.Since(began).Seconds()

	l.wlog = wl
	l.recovery = &rec
	l.lastSnapshotIdx.Store(off)
	if rec.Performed {
		l.cfg.Logf("serve: recovered from snapshot@%d + %d replayed lines (%d tokenized, %d discard marks, %d outputs) in %.3fs (snapshot load %.3fs, replay of %d bytes %.3fs)",
			rec.SnapshotIndex, rec.ReplayedRecords, rec.ReplayTokens, rec.ReplayedMarks, rec.RecoveredOutputs, rec.DurationSeconds,
			rec.SnapshotLoadSeconds, rec.ReplayBytes, rec.ReplaySeconds)
	}
	return nil
}

// modelFor resolves a model fingerprint that a snapshot or a model-epoch
// record names to its compiled form; "" names the manifest's base, the model
// the journal began under. It is the one place that says what a shard
// opened without a registry can do: run only the model it was built with.
func (l *Local) modelFor(fp string) (*predictor.Model, error) {
	if fp == "" && l.registry != nil {
		fp = l.registry.Base()
	}
	cur := l.Manager().Model()
	if fp == "" || fp == cur.FingerprintHex() {
		return cur, nil
	}
	if l.registry == nil {
		return nil, fmt.Errorf("model %s is not the shard's own and the shard has no model registry", fp)
	}
	return l.registry.Compiled(fp)
}

// bootSwitchModel replaces the boot manager with one over model, before any
// state exists to migrate. Boot-time only: the listeners are closed, no
// submitter is running, and the fan-out hands over generationally when the
// old manager closes.
func (l *Local) bootSwitchModel(model *predictor.Model) {
	old := l.Manager()
	next := model.NewManager(old.Workers())
	l.attachArbiter(next)
	l.setManager(next)
	old.Close()
}

// Snapshot checkpoints the Manager's state, stamps it with the WAL offset it
// covers, and truncates journal segments the snapshot made redundant. Safe
// to call concurrently with live ingest: the submitter is paused via snapMu
// for the duration.
func (l *Local) Snapshot() error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.wlog == nil {
		return fmt.Errorf("serve: persistence not enabled")
	}
	idx := l.wlog.LastIndex()
	var buf bytes.Buffer
	// Manager.Snapshot runs the Flush barrier first: every output for lines
	// ≤ idx is published before the state is captured.
	if err := l.Manager().Snapshot(&buf); err != nil {
		return err
	}
	payload := buf.Bytes()
	if l.arb != nil {
		// The manager's Snapshot above ran the Flush barrier, and a worker
		// forwards the marker only after feeding the arbiter every event of
		// the lines before it: the arbiter state captured here covers exactly
		// the snapshot's offset.
		var abuf bytes.Buffer
		if err := l.arb.Snapshot(&abuf); err != nil {
			return err
		}
		payload = frameSnapshotPayload(payload, abuf.Bytes())
	}
	// The journal must be durable up to the snapshot's offset before old
	// segments go away, whatever the fsync policy says.
	if err := l.wlog.Sync(); err != nil {
		return err
	}
	if _, err := wal.WriteSnapshotFile(l.snapDir(), idx, payload); err != nil {
		return err
	}
	if err := l.wlog.TruncateBefore(idx + 1); err != nil {
		return err
	}
	l.snapshots.Add(1)
	l.lastSnapshotIdx.Store(idx)
	return nil
}

// walStatus assembles the shard's journal block (nil when disabled).
func (l *Local) walStatus() *WALStatus {
	if l.wlog == nil {
		return nil
	}
	return &WALStatus{
		Enabled:           true,
		Sync:              l.cfg.Fsync.String(),
		FirstIndex:        l.wlog.FirstIndex(),
		LastIndex:         l.wlog.LastIndex(),
		Segments:          l.wlog.Segments(),
		SnapshotsWritten:  l.snapshots.Load(),
		LastSnapshotIndex: l.lastSnapshotIdx.Load(),
	}
}

// The accessors below expose the journal read-side for shard shipping (the
// serve layer adapts them into the ship Source interface). All are safe
// against concurrent ingest: the wal layer serializes appends internally and
// Replay works from a stable segment listing; LatestSnapshot races only with
// the atomic snapshot rename.

// WALFirstIndex is the journal's first retained index (0 when persistence is
// off or the journal has never held a record).
func (l *Local) WALFirstIndex() uint64 {
	if l.wlog == nil {
		return 0
	}
	return l.wlog.FirstIndex()
}

// WALLastIndex is the journal's last appended index (0 when persistence is
// off).
func (l *Local) WALLastIndex() uint64 {
	if l.wlog == nil {
		return 0
	}
	return l.wlog.LastIndex()
}

// WALReplay streams journal records with index ≥ from (no-op when
// persistence is off).
func (l *Local) WALReplay(from uint64, fn func(index uint64, rec []byte) error) error {
	if l.wlog == nil {
		return nil
	}
	return l.wlog.Replay(from, fn)
}

// LatestSnapshot returns the newest on-disk snapshot container (the full
// framed payload, opaque to callers) and the journal offset it covers.
func (l *Local) LatestSnapshot() (walOffset uint64, payload []byte, ok bool, err error) {
	if l.cfg.Dir == "" {
		return 0, nil, false, nil
	}
	return wal.LatestSnapshot(l.snapDir())
}
