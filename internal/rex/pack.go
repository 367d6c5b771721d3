package rex

// Equivalence-class table packing (flex's ECS): bytes whose transition
// columns are identical across every DFA state collapse into one input
// class, shrinking the per-state row from 256 entries to one per class.
// Log-template alphabets are tiny (letters, digits, a handful of
// punctuation), so the reduction is typically 5–10×.

// packedDFA is the class-compressed form of a dfa.
type packedDFA struct {
	classOf    [256]uint8
	numClasses int
	trans      []int32 // state*numClasses + class
	accepts    []int32
}

// pack computes byte equivalence classes and re-lays the transition table.
func (d *dfa) pack() *packedDFA {
	n := len(d.states)
	p := &packedDFA{accepts: make([]int32, n)}
	for i, st := range d.states {
		p.accepts[i] = st.accept
	}
	// Group bytes by their full column signature.
	index := map[string]uint8{}
	sig := make([]byte, n*4)
	var reps []byte // representative byte per class
	for b := 0; b < 256; b++ {
		for i := range d.states {
			v := d.states[i].next[b] // not a by-value range: a state is a 1 KiB table
			sig[i*4] = byte(v)
			sig[i*4+1] = byte(v >> 8)
			sig[i*4+2] = byte(v >> 16)
			sig[i*4+3] = byte(v >> 24)
		}
		key := string(sig)
		cls, ok := index[key]
		if !ok {
			cls = uint8(len(index))
			index[key] = cls
			reps = append(reps, byte(b))
		}
		p.classOf[b] = cls
	}
	p.numClasses = len(index)
	p.trans = make([]int32, n*p.numClasses)
	for i, st := range d.states {
		row := p.trans[i*p.numClasses : (i+1)*p.numClasses]
		for c, rep := range reps {
			row[c] = st.next[rep]
		}
	}
	return p
}

// packedRun mirrors dfaRun on the packed representation; generic over string
// and []byte for the same copy-free reason (see dfaRun).
//
//aarohi:hotpath
func packedRun[T ~string | ~[]byte](p *packedDFA, input T) (id, length int) {
	st := int32(0)
	id, length = noMatch, 0
	if a := p.accepts[0]; a != noMatch {
		id, length = int(a), 0
	}
	nc := int32(p.numClasses)
	for i := 0; i < len(input); i++ {
		st = p.trans[st*nc+int32(p.classOf[input[i]])]
		if st == noMatch {
			return id, length
		}
		if a := p.accepts[st]; a != noMatch {
			id, length = int(a), i+1
		}
	}
	return id, length
}

func (p *packedDFA) run(input []byte) (id, length int) { return packedRun(p, input) }

// tableBytes reports the transition-table footprint.
func (p *packedDFA) tableBytes() int {
	return len(p.trans)*4 + len(p.accepts)*4 + 256
}

func (d *dfa) tableBytes() int {
	return len(d.states) * (256*4 + 4)
}

// Pack switches the set to the class-compressed table representation.
// Match results are unchanged; the transition table shrinks by the
// alphabet-class ratio.
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
	return s.packed.numClasses
}

// TableBytes reports the current transition-table footprint.
func (s *Set) TableBytes() int {
	if s.packed != nil {
		return s.packed.tableBytes()
	}
	return s.d.tableBytes()
}
