package rex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// TableDigests returns SHA-256 digests of the set's automaton written out to
// 256 columns (reps, then each state's accept value and 256 targets) and,
// when it has been packed, of the packed scan table (every field, in
// declaration order; "" otherwise).
// Exported to the external tests, which pin them in a golden file.
func TableDigests(s *Set) (dense, packed string) {
	h := sha256.New()
	d := s.d.expand256()
	h.Write(d.reps)
	var buf []byte
	for i := range d.states {
		st := &d.states[i]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(st.accept))
		for _, t := range st.next {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
		h.Write(buf)
	}
	dense = hex.EncodeToString(h.Sum(nil))
	p := s.packed
	if p == nil {
		return dense, ""
	}
	h.Reset()
	h.Write(p.classOf[:])
	buf = buf[:0]
	for _, v := range append([]int32{p.numClasses}, p.tab...) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	h.Write(buf)
	h.Write([]byte(p.lits))
	buf = buf[:0]
	for _, v := range []int32{p.start, p.plainLo, p.accelLo, p.acceptLo, p.accelHi} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	h.Write(buf)
	return dense, hex.EncodeToString(h.Sum(nil))
}
