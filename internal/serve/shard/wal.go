package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// WAL record framing: raw log lines are stored verbatim, except that a line
// beginning with NUL is escaped ("\x00l" + line); a model-epoch record is
// "\x00m" + the 16-hex fingerprint; a discard mark is exactly "\x00d" and
// stands for one line the active model scanned and dropped (CountDiscarded).
// Journals written before model epochs or marks existed contain only
// verbatim lines and replay unchanged.
const (
	recKindLine = iota
	recKindEpoch
	recKindMark
	recKindUnknown
)

// markRecord is the discard mark's payload, shared by every mark appended.
var markRecord = []byte{0, 'd'}

// appendLineRecord appends line's record to dst.
//
//aarohi:hotpath
func appendLineRecord(dst []byte, line string) []byte {
	if len(line) > 0 && line[0] == 0 {
		dst = append(dst, 0, 'l')
	}
	return append(dst, line...)
}

func encodeEpochRecord(fp string) []byte {
	return append([]byte{0, 'm'}, fp...)
}

// decodeRecordBytes splits a journal payload into kind and body without
// copying: body aliases payload and is only valid until the replay callback
// returns (wal.Replay reuses its record buffer).
//
//aarohi:hotpath
func decodeRecordBytes(payload []byte) (kind int, body []byte) {
	if len(payload) == 0 || payload[0] != 0 {
		return recKindLine, payload
	}
	if len(payload) >= 2 && payload[1] == 'l' {
		return recKindLine, payload[2:]
	}
	if len(payload) == 18 && payload[1] == 'm' {
		return recKindEpoch, payload[2:]
	}
	if len(payload) == 2 && payload[1] == 'd' {
		return recKindMark, nil
	}
	return recKindUnknown, nil
}

// Framed snapshot payload: with the arbiter enabled, one snapshot file
// carries both the manager's parse state and the arbiter's fusion state, so
// the two restore from the same exact WAL offset. Layout:
//
//	magic (5 bytes) | uvarint manager-length | manager gob | arbiter gob
//
// The magic starts with 0x00; a gob stream never does (its first byte is a
// nonzero message length), so a legacy manager-only payload is unambiguous
// and restores as before.
var snapshotMagic = []byte{0x00, 'a', 'r', 'b', '1'}

func frameSnapshotPayload(mgr, arb []byte) []byte {
	out := make([]byte, 0, len(snapshotMagic)+binary.MaxVarintLen64+len(mgr)+len(arb))
	out = append(out, snapshotMagic...)
	out = binary.AppendUvarint(out, uint64(len(mgr)))
	out = append(out, mgr...)
	return append(out, arb...)
}

// splitSnapshotPayload separates a snapshot payload into its manager and
// arbiter parts. A legacy (unframed) payload is all manager.
func splitSnapshotPayload(payload []byte) (mgr, arb []byte, err error) {
	if !bytes.HasPrefix(payload, snapshotMagic) {
		return payload, nil, nil
	}
	rest := payload[len(snapshotMagic):]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return nil, nil, fmt.Errorf("framed snapshot: manager length %d exceeds payload", n)
	}
	rest = rest[k:]
	return rest[:n], rest[n:], nil
}
