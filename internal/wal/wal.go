// Package wal implements the durability substrate of the aarohid daemon: a
// segmented, checksummed write-ahead journal plus a versioned snapshot
// container. Every accepted ingest line is appended to the journal before it
// is handed to the predictor manager, so a crash at any instant loses at most
// the lines the configured fsync policy permits; on restart the daemon loads
// the latest snapshot and replays the journal tail through the manager,
// restoring every in-flight parse.
//
// The journal is a directory of segment files. Each segment starts with a
// fixed header (magic + the index of its first record) and is followed by
// length-prefixed, CRC32C-protected records. Indices are assigned
// contiguously starting at 1 and never reused; TruncateBefore removes whole
// segments that a snapshot has made redundant. A torn final record — the
// normal result of crashing mid-write — is detected on Open and truncated
// away; corruption anywhere else is reported, never silently skipped.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy uint8

const (
	// SyncBatch (the default) fsyncs in the background every batchInterval:
	// bounded loss (at most one interval of lines) at near-SyncOff append
	// cost.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs before Append returns, group-committing concurrent
	// appenders under one fsync. Nothing acknowledged is ever lost.
	SyncAlways
	// SyncOff never fsyncs explicitly; the OS flushes the page cache at its
	// leisure. A machine crash may lose recent records, a process crash
	// loses nothing (writes are already in the kernel).
	SyncOff
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses the flag spelling ("always", "batch", "off").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, batch or off)", s)
}

// Options configure a Log.
type Options struct {
	// SegmentSize is the byte size past which a new segment is started
	// (default 64 MiB).
	SegmentSize int64
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// FirstIndex is the index the first record of a freshly created journal
	// receives (default 1). Ignored when segments already exist. A journal
	// that mirrors a remote one (shipped shard takeover) starts at the
	// source's snapshot index so replayed indices line up across machines.
	FirstIndex uint64
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.FirstIndex == 0 {
		o.FirstIndex = 1
	}
	return o
}

// ErrCorrupt reports a record whose checksum or framing is invalid anywhere
// other than the reparable tail of the final segment.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed reports an operation on a closed journal.
var ErrClosed = errors.New("wal: log closed")

// errRecordTooLarge and wrapErr keep fmt out of the Append hot path: the
// compiler won't inline functions that call fmt.Errorf, and the call sites
// themselves sit on the per-line ingest path.
func errRecordTooLarge(n int) error {
	return fmt.Errorf("wal: record of %d bytes exceeds limit", n)
}

func wrapErr(err error) error {
	return fmt.Errorf("wal: %w", err)
}

const (
	segMagic   = "AARWAL1\n"
	headerSize = 16 // magic (8) + first index (8)
	recHdrSize = 8  // payload length (4) + CRC32C (4)
	segSuffix  = ".wal"

	// maxRecordSize bounds a single record so a corrupt length prefix can
	// never drive a giant allocation.
	maxRecordSize = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only journal. Append/Sync/TruncateBefore/Replay are safe
// for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	segs    []uint64 // base index of every live segment, ascending; last is active
	segSize int64    // bytes written to the active segment
	next    uint64   // index the next Append receives
	buf     []byte
	closed  bool

	// syncMu serializes fsyncs; synced is the group-commit watermark: the
	// highest index known durable.
	syncMu sync.Mutex
	synced uint64

	stopBatch chan struct{}
	batchDone chan struct{}
}

func segName(base uint64) string { return fmt.Sprintf("%016x%s", base, segSuffix) }

// Open opens (creating if needed) the journal in dir, repairs a torn tail
// left by a crash, and positions for appending after the last intact record.
// It is OpenReplay without a replay.
func Open(dir string, opts Options) (*Log, error) {
	return OpenReplay(dir, opts, 0, nil)
}

// OpenReplay is Open and ReplayRuns(from, fn) in one read of the journal: it
// calls fn (when not nil) for every intact record with index ≥ from, a run at
// a time, exactly as ReplayRuns on the opened Log would, and finds the end of
// the final segment in the same pass. Only once the replay is done does it
// cut off a torn tail and return the Log, positioned for appending. An error
// from fn is returned verbatim and leaves every file as it was; corruption
// anywhere but the final segment's tail returns an error wrapping ErrCorrupt.
func OpenReplay(dir string, opts Options, from uint64, fn func(index uint64, payload []byte, n uint64) error) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}

	bases, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		if err := l.startSegment(opts.FirstIndex); err != nil {
			return nil, err
		}
		l.segs = []uint64{opts.FirstIndex}
		l.next = opts.FirstIndex
	} else {
		// Earlier segments are immutable once rolled: those the replay does
		// not need get a cheap header check, the rest are replayed.
		sr := segReader{buf: make([]byte, segReadBuf)}
		hdr := segReader{buf: make([]byte, headerSize)}
		for si, base := range bases[:len(bases)-1] {
			r, end := &sr, bases[si+1]
			if fn == nil || end <= from {
				r, end = &hdr, base
			}
			if err := l.walkRolled(r, base, from, end, fn); err != nil {
				return nil, err
			}
		}
		last := bases[len(bases)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		next, err := walkSegment(&sr, f, last, from, math.MaxUint64, fn)
		if err != nil {
			f.Close()
			return nil, err
		}
		// Anything past the last intact record is a torn or corrupt tail from
		// a crash mid-append: cut it off so the segment ends on a record
		// boundary again.
		end := sr.off
		if fi, err := f.Stat(); err == nil && fi.Size() > end {
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: repairing tail: %w", err)
			}
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.segs = bases
		l.segSize = end
		l.next = next
	}
	l.synced = l.next - 1

	if opts.Sync == SyncBatch {
		l.stopBatch = make(chan struct{})
		l.batchDone = make(chan struct{})
		go l.batchLoop()
	}
	return l, nil
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segSuffix {
			continue
		}
		var base uint64
		if _, err := fmt.Sscanf(name, "%016x"+segSuffix, &base); err != nil || segName(base) != name {
			continue // foreign file; leave it alone
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// segReadBuf is the segment read buffer: one read(2) brings in ten thousand
// log-line records.
const segReadBuf = 1 << 20

// segReader is the one journal read path (walkSegment's): it
// pulls a segment through a single reused buffer and hands records out as
// sub-slices of it. buf must be non-empty; it is replaced by a larger one
// only when a single record does not fit.
type segReader struct {
	src  io.Reader
	buf  []byte
	r, w int   // buf[r:w] is read from src and not yet consumed
	off  int64 // segment offset just past the header or the last record returned
	err  error // first error from src (io.EOF included); sticky

	// pat is nextRun's block pattern: one small record repeated back to back
	// (patRec bytes each), allocated on the reader's first run.
	pat    []byte
	patRec int
}

// header consumes the segment header, checking the magic and that the first
// index it records is base (the one the file name carries).
func (s *segReader) header(name string, base uint64) error {
	if !s.fill(headerSize) {
		return fmt.Errorf("wal: %s: reading header: %w", name, s.err)
	}
	hdr := s.buf[s.r : s.r+headerSize]
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("wal: %s: bad magic: %w", name, ErrCorrupt)
	}
	if got := binary.BigEndian.Uint64(hdr[8:]); got != base {
		return fmt.Errorf("wal: %s: header base %d does not match name: %w", name, got, ErrCorrupt)
	}
	s.r += headerSize
	s.off = headerSize
	return nil
}

// fill makes buf[r:r+n] readable, reporting false when src ends (or fails)
// first. The unread remainder moves to the front of the buffer, so slices
// returned by earlier next calls are dead after it.
//
//aarohi:hotpath
func (s *segReader) fill(n int) bool {
	if s.w-s.r >= n {
		return true
	}
	s.w = copy(s.buf, s.buf[s.r:s.w])
	s.r = 0
	for s.w < n && s.err == nil {
		if s.w == len(s.buf) {
			s.grow(n)
		}
		var m int
		m, s.err = s.src.Read(s.buf[s.w:])
		s.w += m
		if c := TestHookReadBytes.Load(); c != nil {
			c.Add(int64(m))
		}
	}
	return s.w >= n
}

// grow is fill's cold path, a record larger than the buffer. It doubles
// toward n as the record's bytes actually arrive, so a corrupt length prefix
// on a short file cannot drive a giant allocation.
func (s *segReader) grow(n int) {
	nb := make([]byte, min(n, 2*len(s.buf)))
	copy(nb, s.buf[:s.w])
	s.buf = nb
}

// next returns the next record's payload, valid until the following next
// call, or false when what follows is not a record: clean EOF, a torn header
// or payload, a length over maxRecordSize, a checksum mismatch (a read error
// counts as the end of the file). The caller decides whether that is a
// reparable tail or corruption for its position; off stays just past the
// last intact record.
//
//aarohi:hotpath
func (s *segReader) next() ([]byte, bool) {
	if !s.fill(recHdrSize) {
		return nil, false
	}
	n := binary.BigEndian.Uint32(s.buf[s.r:])
	if n > maxRecordSize {
		return nil, false
	}
	want := binary.BigEndian.Uint32(s.buf[s.r+4:])
	size := recHdrSize + int(n)
	if !s.fill(size) {
		return nil, false
	}
	payload := s.buf[s.r+recHdrSize : s.r+size]
	if crc32.Checksum(payload, crcTable) != want {
		return nil, false
	}
	s.r += size
	s.off += int64(size)
	return payload, true
}

// Runs of identical records. An edge-journaled shard writes a 10-byte
// discard mark for almost every line, so a journal is mostly long runs of one
// record. Identical bytes get the identical verdict, so nextRun checks the
// first copy of a run and compares the rest with it in blocks.
const (
	// runRecMax is the largest record (header and payload) that starts a
	// run; larger records are read one at a time.
	runRecMax = 16
	// runPatBytes is the block the copies are compared in: one memequal per
	// runPatBytes/size copies.
	runPatBytes = 1 << 10
)

// nextRun is next plus the copies that follow: it returns the record's
// payload and n, the number of records from this one on (1 ≤ n ≤ limit,
// limit ≥ 1) that are byte for byte — header and payload — the same record.
// Only a record of at most runRecMax bytes starts a run, and only copies
// already in the buffer count. A copy that differs in any byte ends the run;
// the next call reads it through next, so torn and corrupt records get
// exactly next's verdict.
//
//aarohi:hotpath
func (s *segReader) nextRun(limit uint64) ([]byte, uint64, bool) {
	payload, ok := s.next()
	if !ok {
		return nil, 0, false
	}
	size := recHdrSize + len(payload)
	if size > runRecMax || limit == 1 || s.w-s.r < size {
		return payload, 1, true
	}
	rec := s.buf[s.r-size : s.r]
	if !bytes.Equal(s.buf[s.r:s.r+size], rec) {
		return payload, 1, true
	}
	if s.patRec != size || !bytes.Equal(s.pat[:size], rec) {
		s.setPattern(rec)
	}
	n := uint64(1)
	for n < limit {
		k := min(uint64(len(s.pat)/size), limit-n, uint64((s.w-s.r)/size))
		if k == 0 {
			break // the buffer ends; the next call refills
		}
		b := int(k) * size
		if bytes.Equal(s.buf[s.r:s.r+b], s.pat[:b]) {
			s.r += b
			n += k
			continue
		}
		// A copy in this block differs: take the ones before it.
		for bytes.Equal(s.buf[s.r:s.r+size], s.pat[:size]) {
			s.r += size
			n++
		}
		break
	}
	s.off += int64(n-1) * int64(size)
	return payload, n, true
}

// setPattern fills pat with as many whole copies of rec as fit in
// runPatBytes, allocating it the first time.
func (s *segReader) setPattern(rec []byte) {
	if s.pat == nil {
		s.pat = make([]byte, runPatBytes)
	}
	s.pat = s.pat[:runPatBytes-runPatBytes%len(rec)]
	for i := 0; i < len(s.pat); i += len(rec) {
		copy(s.pat[i:], rec)
	}
	s.patRec = len(rec)
}

// TestHookReadBytes, while it points at a counter, makes every segment
// reader add the bytes it reads from its file (headers and records) to it, so
// a test can check how many times a boot reads its journal. Tests only.
var TestHookReadBytes atomic.Pointer[atomic.Int64]

// walkSegment is the one loop over a segment's records, shared by
// OpenReplay and ReplayRuns. It points sr at f, whose first record has index
// base, checks the header, then reads records until index end or the first
// record that is not intact, calling fn (when not nil) for each run of
// records with index ≥ from. It returns the index just past the last record
// read, whose end offset is then sr.off; an error from fn is returned
// verbatim. The caller closes f.
func walkSegment(sr *segReader, f *os.File, base, from, end uint64, fn func(uint64, []byte, uint64) error) (uint64, error) {
	sr.src, sr.r, sr.w, sr.off, sr.err = f, 0, 0, 0, nil
	if err := sr.header(segName(base), base); err != nil {
		return base, err
	}
	idx := base
	for idx < end {
		limit := end - idx
		if idx < from {
			limit = min(limit, from-idx)
		}
		payload, n, ok := sr.nextRun(limit)
		if !ok {
			break
		}
		if fn != nil && idx >= from {
			if err := fn(idx, payload, n); err != nil {
				return idx, err
			}
		}
		idx += n
	}
	return idx, nil
}

// walkRolled walks the rolled segment at base, which must hold every record
// before end (its successor's base, or base itself to check only the
// header): a record missing or damaged before end is corruption.
func (l *Log) walkRolled(sr *segReader, base, from, end uint64, fn func(uint64, []byte, uint64) error) error {
	f, err := os.Open(filepath.Join(l.dir, segName(base)))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	idx, err := walkSegment(sr, f, base, from, end, fn)
	f.Close()
	if err == nil && idx < end {
		err = fmt.Errorf("wal: %s: record %d unreadable: %w", segName(base), idx, ErrCorrupt)
	}
	return err
}

// startSegment creates and opens a fresh segment whose first record will
// carry index base. Caller holds l.mu (or is Open, single-threaded).
func (l *Log) startSegment(base uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(base)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segSize = headerSize
	return nil
}

// rollLocked makes the finished segment durable and opens the next one, so
// TruncateBefore and recovery can trust everything behind the active segment
// unconditionally. Caller holds l.mu; rolls are rare (once per SegmentSize
// bytes), so the fsync-under-lock stall is amortized across the segment.
func (l *Log) rollLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.startSegment(l.next); err != nil {
		return err
	}
	l.segs = append(l.segs, l.next)
	return nil
}

// Append writes one record and returns its index (the first record is 1).
// Under SyncAlways it returns only once the record is fsynced; under
// SyncBatch/SyncOff it returns as soon as the kernel has the bytes.
//
//aarohi:hotpath
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordSize {
		return 0, errRecordTooLarge(len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	rec := int64(recHdrSize + len(payload))
	if l.segSize > headerSize && l.segSize+rec > l.opts.SegmentSize {
		if err := l.rollLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	l.buf = l.buf[:0]
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = binary.BigEndian.AppendUint32(l.buf, crc32.Checksum(payload, crcTable))
	l.buf = append(l.buf, payload...)
	if _, err := l.f.Write(l.buf); err != nil { //aarohi:allow lockblock single-writer journal: every append serializes through l.mu by design
		l.mu.Unlock()
		return 0, wrapErr(err)
	}
	idx := l.next
	l.next++
	l.segSize += rec
	l.mu.Unlock()

	if l.opts.Sync == SyncAlways {
		if err := l.ensureSynced(idx); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// AppendBatch writes every payload as its own record — indices are assigned
// contiguously, segment-roll decisions are made per record exactly as N
// Append calls would make them (the on-disk layout is byte-identical to
// appending one at a time) — but encodes the group into the reused internal
// buffer, issues one write per segment it lands in (one, except at a roll
// boundary), and under SyncAlways commits the whole group with at most one
// fsync. It returns the index of the last record in the batch (the first is
// last-len(payloads)+1); an empty batch is a no-op returning the current
// last index.
//
// This is the amortization ROADMAP item 2 calls for: the per-line ingest
// path pays one l.mu acquisition, one kernel write and (fsync always) one
// disk flush per record; the batched path pays each once per group.
//
//aarohi:hotpath
func (l *Log) AppendBatch(payloads [][]byte) (last uint64, err error) {
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return 0, errRecordTooLarge(len(p))
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	l.buf = l.buf[:0]
	var pending uint64 // records encoded in l.buf, not yet written
	var pendingBytes int64
	for _, p := range payloads {
		rec := int64(recHdrSize + len(p))
		if l.segSize+pendingBytes > headerSize && l.segSize+pendingBytes+rec > l.opts.SegmentSize {
			// This record starts a new segment, exactly as Append would
			// decide: flush what belongs to the current segment, then roll.
			if pending > 0 {
				if _, err := l.f.Write(l.buf); err != nil { //aarohi:allow lockblock single-writer journal: every append serializes through l.mu by design
					l.mu.Unlock()
					return 0, wrapErr(err)
				}
				l.next += pending
				l.segSize += pendingBytes
				l.buf = l.buf[:0]
				pending, pendingBytes = 0, 0
			}
			if err := l.rollLocked(); err != nil {
				l.mu.Unlock()
				return 0, err
			}
		}
		l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(len(p)))
		l.buf = binary.BigEndian.AppendUint32(l.buf, crc32.Checksum(p, crcTable))
		l.buf = append(l.buf, p...)
		pending++
		pendingBytes += rec
	}
	if pending > 0 {
		if _, err := l.f.Write(l.buf); err != nil { //aarohi:allow lockblock single-writer journal: every append serializes through l.mu by design
			l.mu.Unlock()
			return 0, wrapErr(err)
		}
		l.next += pending
		l.segSize += pendingBytes
	}
	last = l.next - 1
	l.mu.Unlock()

	if len(payloads) > 0 && l.opts.Sync == SyncAlways {
		if err := l.ensureSynced(last); err != nil {
			return 0, err
		}
	}
	return last, nil
}

// ensureSynced group-commits: whoever wins syncMu fsyncs once and advances
// the watermark past every record written so far, releasing all waiters.
func (l *Log) ensureSynced(idx uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= idx {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	l.mu.Lock()
	f := l.f
	top := l.next - 1
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	// A roll between the capture and this Sync is harmless: rolling fsyncs
	// the finished segment first, so records up to top are durable either
	// in the rolled file or in f.
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if top > l.synced {
		l.synced = top
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncLocked()
}

// batchInterval is the background fsync period under SyncBatch.
const batchInterval = 50 * time.Millisecond

func (l *Log) batchLoop() {
	defer close(l.batchDone)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync() // best effort; Append surfaces hard write errors
		case <-l.stopBatch:
			return
		}
	}
}

// FirstIndex returns the index of the oldest retained record (0 when the
// journal has never held one).
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 || l.segs[0] >= l.next {
		return 0
	}
	return l.segs[0]
}

// LastIndex returns the index of the most recently appended record (0 when
// none exists yet).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Replay calls fn for every intact record with index ≥ from, in index order.
// It is ReplayRuns for a caller that takes one record at a time.
func (l *Log) Replay(from uint64, fn func(index uint64, payload []byte) error) error {
	return l.ReplayRuns(from, func(idx uint64, payload []byte, n uint64) error {
		for end := idx + n; idx < end; idx++ {
			if err := fn(idx, payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReplayRuns calls fn for every intact record with index ≥ from, in index
// order, a run of byte-identical records at a time: fn(index, payload, n)
// stands for the n ≥ 1 records index … index+n−1, each of which carries
// payload (valid until fn returns). A run ends at a segment boundary and
// never spans from or the last index as of the call, so a journal appended
// to meanwhile is not read past it. A torn tail on the final segment ends the
// replay cleanly; corruption anywhere else returns an error wrapping
// ErrCorrupt and naming the record. Stop early by returning an error from fn
// (it is returned verbatim).
func (l *Log) ReplayRuns(from uint64, fn func(index uint64, payload []byte, n uint64) error) error {
	l.mu.Lock()
	bases := append([]uint64(nil), l.segs...)
	next := l.next
	l.mu.Unlock()

	sr := segReader{buf: make([]byte, segReadBuf)}
	for si, base := range bases[:len(bases)-1] {
		if end := bases[si+1]; end > from { // else wholly before the window
			if err := l.walkRolled(&sr, base, from, end, fn); err != nil {
				return err
			}
		}
	}
	// The final segment ends at the last index as of the call, or earlier
	// at a torn tail, which ends the replay cleanly (Open truncates it).
	last := bases[len(bases)-1]
	f, err := os.Open(filepath.Join(l.dir, segName(last)))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	_, err = walkSegment(&sr, f, last, from, next, fn)
	return err
}

// TruncateBefore removes segments every record of which has index < idx —
// the reclamation step after a snapshot covering idx-1. The active segment
// is never removed.
func (l *Log) TruncateBefore(idx uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[1] <= idx {
		//aarohi:allow lockblock reclamation runs once per snapshot; holding l.mu keeps the segment list consistent with the files on disk
		if err := os.Remove(filepath.Join(l.dir, segName(l.segs[0]))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// Close stops the background fsync loop (if any), syncs, and closes the
// active segment. The log is unusable afterwards.
func (l *Log) Close() error {
	if l.stopBatch != nil {
		close(l.stopBatch)
		<-l.batchDone
	}
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncErr
}
