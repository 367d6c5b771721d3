package rex

import (
	"bytes"
	"strings"
)

// Equivalence-class table packing (flex's ECS): bytes whose transition
// columns are identical across every DFA state collapse into one input
// class. The automaton's rows already hold one column per input class of
// the NFA (bytes no template tells apart); packing also merges the classes
// that minimization left with identical columns. Log-template alphabets are
// tiny (letters, digits, a handful of punctuation), so a row holds tens of
// entries, not 256.
//
// The packed table is also laid out for the scan loop: the premultiplied
// state IDs and match-state ordering of Rust's regex-automata, plus two
// shortcuts over stretches the walk would otherwise take one byte at a time.
//
//   - Every state is an offset into one []int32, and every transition stores
//     its target's offset, so a step is tab[st+class] with no multiply. The
//     dead state is offset 0.
//   - States are laid out by kind, so a step's kind is a compare against a
//     bound, not a load. The accelerated kinds sit together, and so do the
//     accepting ones:
//
//     0                    dead
//     [1, plainLo)         literal-run heads: run offset in lits, run length, next state
//     [plainLo, accelLo)   other non-accepting states: a row of numClasses targets
//     [accelLo, acceptLo)  accelerated non-accepting states: the row, unused, escape byte
//     [acceptLo, accelHi)  accelerated accepting states: the row, pattern ID, escape byte
//     [accelHi, len(tab))  other accepting states: the row, pattern ID, unused
//
//   - A literal run is a chain of non-accepting states that each have one
//     live out-class, holding one byte: the literal text of a template trie.
//     The chain is compared as one string and needs no rows. Every other
//     class out of it is dead, so a mismatch or a short input ends the scan
//     where the walk would, with the best match seen before the run.
//   - An accelerated state loops to itself on every byte but '\n' (which '.'
//     excludes) and at most one escape byte: a template's '*', where the
//     escape byte starts the literal after an interior wildcard and there is
//     none after a trailing one. The scan skips to the first of the two with
//     IndexByte; an accepting one then accepts the whole stretch.

// packedDFA is the class-compressed runtime form of a dfa.
type packedDFA struct {
	classOf    [256]uint8
	numClasses int32
	tab        []int32
	lits       string // the bytes of every literal run
	start      int32
	plainLo    int32
	accelLo    int32
	acceptLo   int32
	accelHi    int32
}

// pack computes byte equivalence classes and lays out the scan table.
func (d *dfa) pack() *packedDFA {
	n, k := d.numStates(), len(d.reps)
	p := &packedDFA{}
	// Group the input classes by their full column signature, in the order
	// of their smallest byte.
	index := map[string]uint8{}
	sig := make([]byte, n*4)
	var reps []byte // representative byte per packed class
	var col []int   // the input class whose column each packed class reads
	packed := make([]uint8, k)
	for c := range packed {
		for s := 0; s < n; s++ {
			v := d.next[s*k+c]
			sig[s*4] = byte(v)
			sig[s*4+1] = byte(v >> 8)
			sig[s*4+2] = byte(v >> 16)
			sig[s*4+3] = byte(v >> 24)
		}
		cls, ok := index[string(sig)]
		if !ok {
			cls = uint8(len(index))
			index[string(sig)] = cls
			reps = append(reps, d.reps[c])
			col = append(col, c)
		}
		packed[c] = cls
	}
	size := make([]int, len(reps)) // bytes per class
	for b := 0; b < 256; b++ {
		cls := packed[d.classOf[b]]
		p.classOf[b] = cls
		size[cls]++
	}
	nc := int32(len(reps))
	p.numClasses = nc

	// Kinds. litByte[s] is the one byte a literal-run state moves on, -1
	// otherwise. An accelerated state leaves itself only on '\n' and at most
	// one other byte, escape[s] (-1 if none); accel[s] marks it. '\n' is set
	// apart only when it is a class of its own.
	litByte, escape, accel := make([]int, n), make([]int32, n), make([]bool, n)
	for s := 0; s < n; s++ {
		row := d.row(int32(s))
		litByte[s], escape[s] = -1, -1
		live, nLive, nLeave := 0, 0, 0
		leaveOK := true
		for c, rep := range reps {
			t := row[col[c]]
			if t != noMatch {
				live, nLive = c, nLive+1
			}
			if t != int32(s) && (rep != '\n' || size[c] > 1) {
				leaveOK = leaveOK && size[c] == 1
				escape[s], nLeave = int32(rep), nLeave+1
			}
		}
		switch {
		case d.accept[s] == noMatch && nLive == 1 && size[live] == 1:
			litByte[s] = int(reps[live])
		case leaveOK && nLeave <= 1:
			accel[s] = true
		}
		if !accel[s] {
			escape[s] = -1
		}
	}

	// Literal runs. A walk from a run state without a record collects bytes
	// until it leaves the run states or meets a state that has one (a run
	// laid out before, or this walk's own cycle); every state on the walk
	// gets a suffix of the collected bytes, and the run ends at the state
	// the walk stopped on.
	type litRun struct{ off, n, next int32 } // next is a dfa state
	runs := make([]litRun, n)
	done := make([]bool, n)
	var lits []byte
	var path []int32
	for s := range litByte {
		if litByte[s] < 0 || done[s] {
			continue
		}
		path = path[:0]
		base := len(lits)
		t := int32(s)
		for litByte[t] >= 0 && !done[t] {
			done[t] = true
			path = append(path, t)
			lits = append(lits, byte(litByte[t]))
			t = d.step(t, byte(litByte[t]))
		}
		total := len(lits) - base
		for j, q := range path {
			runs[q] = litRun{off: int32(base + j), n: int32(total - j), next: t}
		}
	}
	p.lits = string(lits)

	// Offsets, kind by kind. Accepting and accelerated rows carry two more
	// entries: the accepted pattern ID and the escape byte.
	off := make([]int32, n)
	pos := int32(1)
	place := func(keep func(s int) bool, width int32) int32 {
		lo := pos
		for s := range off {
			if keep(s) {
				off[s] = pos
				pos += width
			}
		}
		return lo
	}
	accepts := func(s int) bool { return d.accept[s] != noMatch }
	place(func(s int) bool { return litByte[s] >= 0 }, 3)
	p.plainLo = place(func(s int) bool { return litByte[s] < 0 && !accel[s] && !accepts(s) }, nc)
	p.accelLo = place(func(s int) bool { return accel[s] && !accepts(s) }, nc+2)
	p.acceptLo = place(func(s int) bool { return accel[s] && accepts(s) }, nc+2)
	p.accelHi = place(func(s int) bool { return !accel[s] && accepts(s) }, nc+2)
	p.start = off[0]

	target := func(t int32) int32 {
		if t == noMatch {
			return 0
		}
		return off[t]
	}
	p.tab = make([]int32, pos)
	for s, o := range off {
		if litByte[s] >= 0 {
			r := runs[s]
			p.tab[o], p.tab[o+1], p.tab[o+2] = r.off, r.n, target(r.next)
			continue
		}
		row := d.row(int32(s))
		for c := range reps {
			p.tab[o+int32(c)] = target(row[col[c]])
		}
		if o >= p.accelLo {
			p.tab[o+nc], p.tab[o+nc+1] = d.accept[s], escape[s]
		}
	}
	return p
}

// scanPacked is dfaRun on the packed table: the same (id, length) for every
// input. It is generic over string and []byte for the same copy-free reason
// (see dfaRun).
//
//aarohi:hotpath
func scanPacked[T ~string | ~[]byte](p *packedDFA, input T) (id, length int) {
	tab, plainLo := p.tab, p.plainLo
	plainSpan := uint32(p.accelLo - plainLo)
	id, length = noMatch, 0
	st, i := p.start, 0
	nl := -1 // the first '\n' at or after i, once an accelerated state needs it
	for {
		for uint32(st-plainLo) < plainSpan {
			if i == len(input) {
				return id, length
			}
			st = tab[int(st)+int(p.classOf[input[i]])]
			i++
		}
		if st < plainLo {
			if st == 0 {
				return id, length
			}
			o := int(st)
			at, n := int(tab[o]), int(tab[o+1])
			// The first byte alone decides most runs a discarded message
			// enters, without a call.
			if len(input)-i < n || input[i] != p.lits[at] || string(input[i+1:i+n]) != p.lits[at+1:at+n] {
				return id, length
			}
			i += n
			st = tab[o+2]
			continue
		}
		o := int(st) + int(p.numClasses)
		if st >= p.acceptLo {
			id, length = int(tab[o]), i
		}
		if st < p.accelHi {
			if nl < i {
				nl = len(input)
				if j := indexByte(input[i:], '\n'); j >= 0 {
					nl = i + j
				}
			}
			end := nl
			if e := tab[o+1]; e >= 0 {
				if j := indexByte(input[i:nl], byte(e)); j >= 0 {
					end = i + j
				}
			}
			i = end
			if st >= p.acceptLo {
				length = i
			}
		}
		if i == len(input) {
			return id, length
		}
		st = tab[int(st)+int(p.classOf[input[i]])]
		i++
	}
}

// indexByte is bytes.IndexByte on a []byte and strings.IndexByte on a
// string. The conversion to any is only asserted on, so it does not escape,
// and string(s) of a string is no conversion (the scanner's allocation tests
// pin both).
func indexByte[T ~string | ~[]byte](s T, c byte) int {
	if b, ok := any(s).([]byte); ok {
		return bytes.IndexByte(b, c)
	}
	return strings.IndexByte(string(s), c)
}

// tableBytes reports the scan-table footprint: the table, the literal-run
// bytes and the byte-to-class map.
func (p *packedDFA) tableBytes() int {
	return len(p.tab)*4 + len(p.lits) + 256
}

// tableBytes reports the class-width rows, the accept values and the
// byte-to-class map.
func (d *dfa) tableBytes() int {
	return d.numStates()*(len(d.reps)*4+4) + 256
}

// Pack switches the set to the packed scan table. Match results are
// unchanged; the table shrinks by the alphabet-class ratio and again by the
// rows that literal runs replace.
func (s *Set) Pack() {
	if s.packed == nil {
		s.packed = s.d.pack()
	}
}

// NumClasses reports the input equivalence classes after Pack (0 before).
func (s *Set) NumClasses() int {
	if s.packed == nil {
		return 0
	}
	return int(s.packed.numClasses)
}

// TableBytes reports the current transition-table footprint.
func (s *Set) TableBytes() int {
	if s.packed != nil {
		return s.packed.tableBytes()
	}
	return s.d.tableBytes()
}
