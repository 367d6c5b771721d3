package rex

// DFA minimization by Moore-style partition refinement with signature
// hashing: states start partitioned by accept value; each round re-partitions
// by (accept, successor classes); a fixpoint yields the coarsest congruence.
// flex performs the same reduction on its scanner tables; the generated
// Aarohi scanner minimizes its combined DFA before deployment (the ablation
// benchmarks quantify the table-size effect).

// minimize returns an equivalent DFA with the minimal number of reachable
// states. The start state keeps index 0; the others are numbered in the order
// of their first member state.
func (d *dfa) minimize() *dfa {
	n, k := len(d.states), len(d.reps)
	if n == 0 {
		return d
	}
	// Successors read one column per input class: the other bytes of a
	// class repeat its column, so they cannot split a block it does not.
	succ := make([]int32, n*k)
	for i := range d.states {
		st := &d.states[i] // by pointer: a state is a 1 KiB table
		for c, b := range d.reps {
			succ[i*k+c] = st.next[b]
		}
	}
	// Initial partition: by accept value. Block IDs are dense from 0.
	part := make([]int32, n)
	blockOf := map[int32]int32{}
	for i, st := range d.states {
		id, ok := blockOf[st.accept]
		if !ok {
			id = int32(len(blockOf))
			blockOf[st.accept] = id
		}
		part[i] = id
	}
	numBlocks := len(blockOf)

	// Refine until stable. Each round numbers the new blocks in the order of
	// their first state and finds a state's block through an open-addressing
	// table of signature hashes, each slot holding a block whose first state
	// is compared with the state in full. The dead state (-1) is its own
	// implicit block.
	block := func(t int32) int32 {
		if t == noMatch {
			return noMatch
		}
		return part[t]
	}
	same := func(i, j int) bool {
		if part[i] != part[j] {
			return false
		}
		for c := 0; c < k; c++ {
			if block(succ[i*k+c]) != block(succ[j*k+c]) {
				return false
			}
		}
		return true
	}
	size := 1
	for size < 2*n {
		size <<= 1
	}
	slots := make([]int32, size)
	next := make([]int32, n)
	var first []int // first state of each new block
	for {
		for i := range slots {
			slots[i] = noMatch
		}
		first = first[:0]
		for i := 0; i < n; i++ {
			h := uint64(part[i])*0x9e3779b97f4a7c15 + 1
			for c := 0; c < k; c++ {
				h = (h ^ uint64(uint32(block(succ[i*k+c])))) * 0x100000001b3
			}
			slot := int(h^h>>29) & (size - 1)
			for {
				b := slots[slot]
				if b == noMatch {
					b = int32(len(first))
					first = append(first, i)
					slots[slot] = b
				} else if !same(i, first[b]) {
					slot = (slot + 1) & (size - 1)
					continue
				}
				next[i] = b
				break
			}
		}
		part, next = next, part
		if len(first) == numBlocks {
			break
		}
		numBlocks = len(first)
	}

	// Block IDs already follow first-seen order; make the start state's
	// block 0 and keep the others in that order.
	remap := make([]int32, numBlocks)
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

	out := &dfa{states: make([]dfaState, numBlocks), reps: d.reps, classOf: d.classOf}
	built := make([]bool, numBlocks)
	row := make([]int32, k)
	for i := range d.states {
		b := remap[part[i]]
		if built[b] {
			continue
		}
		built[b] = true
		for c := range row {
			row[c] = noMatch
			if t := succ[i*k+c]; t != noMatch {
				row[c] = remap[part[t]]
			}
		}
		ns := &out.states[b]
		ns.accept = d.states[i].accept
		for x, c := range d.classOf {
			ns.next[x] = row[c]
		}
	}
	return out
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
