package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to the journal reader as the contents
// of a single segment file. Decoding must never panic; records it does
// accept must carry valid checksums (verified by re-encoding).
func FuzzWALDecode(f *testing.F) {
	// Seed with a well-formed two-record segment and mutations of it.
	dir := f.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	l.Append([]byte("seed record one"))
	l.Append([]byte("seed record two"))
	l.Close()
	good, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	flipped := append([]byte(nil), good...)
	flipped[headerSize+recHdrSize+1] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		defer l.Close()
		prev := uint64(0)
		err = l.Replay(0, func(idx uint64, payload []byte) error {
			if idx != prev+1 {
				t.Fatalf("non-contiguous indices: %d after %d", idx, prev)
			}
			prev = idx
			return nil
		})
		_ = err // ErrCorrupt is a valid outcome; panics are not
	})
}

// FuzzAppendBatchDecode proves the group-append path is indistinguishable
// from singles under arbitrary payloads, batch partitions and crash points:
// a journal written with mixed Append/AppendBatch calls replays identically
// to one written record-at-a-time, and a torn tail landing inside a batch's
// records repairs on Open to a strict prefix that accepts further appends.
func FuzzAppendBatchDecode(f *testing.F) {
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789 the quick brown fox"), uint16(7))
	f.Add(bytes.Repeat([]byte{3, 0, 5}, 40), uint16(0))
	f.Add([]byte{40, 1, 2, 3}, uint16(1000))
	f.Add(bytes.Repeat([]byte{0xff}, 100), uint16(13))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// Carve payloads out of the input: a length byte, then that many
		// content bytes. Zero-length records are legal and stay in.
		var payloads [][]byte
		for i := 0; i < len(data) && len(payloads) < 48; {
			n := int(data[i]) % 41
			i++
			if i+n > len(data) {
				n = len(data) - i
			}
			payloads = append(payloads, data[i:i+n])
			i += n
		}
		if len(payloads) == 0 {
			return
		}

		// Tiny segments force rolls to land inside batch groups.
		opts := Options{Sync: SyncOff, SegmentSize: 192}
		dirA, dirB := t.TempDir(), t.TempDir()
		a, err := Open(dirA, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Journal A: mixed singles and groups, partition derived from data.
		for i := 0; i < len(payloads); {
			n := 1 + int(data[i%len(data)])%7
			if i+n > len(payloads) {
				n = len(payloads) - i
			}
			if n == 1 && i%2 == 0 {
				_, err = a.Append(payloads[i])
			} else {
				_, err = a.AppendBatch(payloads[i : i+n])
			}
			if err != nil {
				t.Fatal(err)
			}
			i += n
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		// Journal B: the same records, one Append per record.
		b, err := Open(dirB, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := b.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}

		ra, err := Open(dirA, opts)
		if err != nil {
			t.Fatal(err)
		}
		idxA, payA := replayAll(t, ra)
		ra.Close()
		rb, err := Open(dirB, opts)
		if err != nil {
			t.Fatal(err)
		}
		idxB, payB := replayAll(t, rb)
		rb.Close()
		if len(idxA) != len(payloads) || len(idxB) != len(payloads) {
			t.Fatalf("replay counts %d/%d, want %d", len(idxA), len(idxB), len(payloads))
		}
		for i := range payloads {
			if idxA[i] != uint64(i+1) || idxB[i] != uint64(i+1) {
				t.Fatalf("record %d replayed as indices %d/%d", i+1, idxA[i], idxB[i])
			}
			if !bytes.Equal(payA[i], payB[i]) || !bytes.Equal(payA[i], payloads[i]) {
				t.Fatalf("record %d payload diverges between mixed and singles journals", i+1)
			}
		}

		// Crash mid-batch: shear the newest segment at an arbitrary byte
		// offset past its header — possibly splitting a record that was
		// written as part of a group — and reopen.
		ents, err := os.ReadDir(dirA)
		if err != nil {
			t.Fatal(err)
		}
		lastSeg := filepath.Join(dirA, ents[len(ents)-1].Name())
		info, err := os.Stat(lastSeg)
		if err != nil {
			t.Fatal(err)
		}
		body := info.Size() - headerSize
		if body <= 0 {
			t.Fatalf("final segment %s holds no records", lastSeg)
		}
		if err := os.Truncate(lastSeg, headerSize+int64(cut)%body); err != nil {
			t.Fatal(err)
		}
		torn, err := Open(dirA, opts)
		if err != nil {
			t.Fatalf("torn tail not repaired: %v", err)
		}
		defer torn.Close()
		idxT, payT := replayAll(t, torn)
		if len(idxT) >= len(payloads) {
			t.Fatalf("sheared journal replayed %d records, want a strict prefix of %d", len(idxT), len(payloads))
		}
		for i := range idxT {
			if idxT[i] != uint64(i+1) || !bytes.Equal(payT[i], payloads[i]) {
				t.Fatalf("post-repair record %d is not a prefix of the original sequence", i+1)
			}
		}
		idx, err := torn.Append([]byte("post-repair"))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(len(idxT) + 1); idx != want {
			t.Fatalf("append after repair landed at %d, want %d", idx, want)
		}
	})
}

// FuzzSnapshotDecode hammers the snapshot container decoder: truncated,
// bit-flipped and garbage inputs must return errors — never panic, never
// silently accept a payload whose checksum does not match.
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, 123, []byte("snapshot payload for fuzzing")); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-5])
	flipped := append([]byte(nil), good...)
	flipped[snapHdrSize+3] ^= 0x08
	f.Add(flipped)
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, snapHdrSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		off, payload, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: the input must round-trip to exactly the same bytes,
		// proving the checksum genuinely covered the payload.
		var re bytes.Buffer
		if err := EncodeSnapshot(&re, off, payload); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("accepted snapshot does not round-trip (%d vs %d bytes)", re.Len(), len(data))
		}
	})
}

// FuzzOpenReplay holds OpenReplay to Open followed by ReplayRuns (see
// checkOnePass) on a journal of two segments: an arbitrary first file and,
// when second is not empty, a final segment with a valid header whose base
// follows the first file's intact records and arbitrary records after it.
func FuzzOpenReplay(f *testing.F) {
	recs := appendRecord(markRun(appendRecord(nil, []byte("a kept line")), 40), []byte("another kept line"))
	first := append(segHeader(1), recs...)
	f.Add(first, recs, uint8(1))
	f.Add(first, recs[:len(recs)-5], uint8(0))
	f.Add(first, recs, uint8(45))
	f.Add(first, recs[:len(recs)-5], uint8(60))
	f.Add(first[:len(first)-3], recs, uint8(1))
	f.Add(first, []byte{}, uint8(30))
	f.Add(first[:len(first)-9], []byte{}, uint8(30))
	flipped := bytes.Clone(first)
	flipped[headerSize+40] ^= 0x02 // inside the run of marks
	f.Add(flipped, recs, uint8(2))
	f.Add(first, flipped[headerSize:], uint8(50))
	f.Add(segHeader(1), []byte{}, uint8(0))
	f.Add([]byte{}, recs, uint8(1))

	f.Fuzz(func(t *testing.T, first, second []byte, from uint8) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(second) > 0 {
			next := uint64(2) // a segment name must not repeat
			if bytes.HasPrefix(first, segHeader(1)) {
				recs, _, _ := readerScan(t, first, 1, 64, math.MaxUint64)
				next = max(next, 1+uint64(len(recs)))
			}
			if err := os.WriteFile(filepath.Join(dir, segName(next)), append(segHeader(next), second...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkOnePass(t, dir, uint64(from))
	})
}
