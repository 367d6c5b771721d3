package rex

// DFA minimization by Moore-style partition refinement with signature
// hashing: states start partitioned by accept value; each round re-partitions
// by (accept, successor classes); a fixpoint yields the coarsest congruence.
// flex performs the same reduction on its scanner tables; the generated
// Aarohi scanner minimizes its combined DFA before deployment (the ablation
// benchmarks quantify the table-size effect).

// minimize returns an equivalent DFA with the minimal number of reachable
// states. The start state keeps index 0.
func (d *dfa) minimize() *dfa {
	n := len(d.states)
	if n == 0 {
		return d
	}
	// Initial partition: by accept value. Class IDs are dense from 0.
	part := make([]int32, n)
	classOf := map[int32]int32{}
	for i, st := range d.states {
		id, ok := classOf[st.accept]
		if !ok {
			id = int32(len(classOf))
			classOf[st.accept] = id
		}
		part[i] = id
	}
	numClasses := len(classOf)

	// Refine until stable. The dead state (-1) is its own implicit class.
	// Signatures read one column per input class: the other bytes of a class
	// repeat its column, so they cannot split a partition it does not.
	sigBuf := make([]byte, 0, (len(d.reps)+1)*4)
	for {
		index := map[string]int32{}
		next := make([]int32, n)
		for i := range d.states {
			st := &d.states[i] // by pointer: a state is a 1 KiB table
			sigBuf = sigBuf[:0]
			sigBuf = appendInt32(sigBuf, part[i])
			for _, b := range d.reps {
				t := st.next[b]
				cls := int32(-1)
				if t != noMatch {
					cls = part[t]
				}
				sigBuf = appendInt32(sigBuf, cls)
			}
			key := string(sigBuf)
			id, ok := index[key]
			if !ok {
				id = int32(len(index))
				index[key] = id
			}
			next[i] = id
		}
		if len(index) == numClasses {
			part = next
			break
		}
		numClasses = len(index)
		part = next
	}

	// Renumber classes so the start state's class becomes 0, preserving
	// first-seen order otherwise.
	remap := make([]int32, numClasses)
	for i := range remap {
		remap[i] = -1
	}
	remap[part[0]] = 0
	nextID := int32(1)
	for i := 0; i < n; i++ {
		if remap[part[i]] == -1 {
			remap[part[i]] = nextID
			nextID++
		}
	}

	out := &dfa{states: make([]dfaState, numClasses), reps: d.reps}
	built := make([]bool, numClasses)
	for i, st := range d.states {
		cls := remap[part[i]]
		if built[cls] {
			continue
		}
		built[cls] = true
		ns := dfaState{accept: st.accept}
		for b := 0; b < 256; b++ {
			if t := st.next[b]; t != noMatch {
				ns.next[b] = remap[part[t]]
			} else {
				ns.next[b] = noMatch
			}
		}
		out.states[cls] = ns
	}
	return out
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Minimize replaces the set's DFA with its minimal equivalent. It is
// idempotent and never changes Match results. Any packed form is dropped;
// call Pack again afterwards.
func (s *Set) Minimize() {
	s.d = s.d.minimize()
	s.packed = nil
}

// Minimize replaces the pattern's DFA with its minimal equivalent.
func (re *Regexp) Minimize() {
	re.d = re.d.minimize()
}
