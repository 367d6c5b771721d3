package rex

// DFA minimization by partition refinement over the live transitions, after
// Valmari, "Fast brief practical DFA minimization", Information Processing
// Letters 112(6), 2012: O(m log n) for m transitions and n states. States
// start partitioned by accept value and transitions by class. Two partitions
// then refine each other until both are stable: the tails of a group of
// transitions (one class, heads in one block) split every block they cut,
// and every block made by a split splits the groups of transitions into it.
// Each split keeps the larger part under the old set and processes only the
// smaller one, hence the log factor.
//
// The dead state stays implicit: a missing transition is no transition, so
// a state with a move on a class and one without never share a block — the
// coarsest congruence Moore-style rounds reach with the dead state as a
// block of its own. flex performs the same reduction on its scanner tables;
// the generated Aarohi scanner minimizes its combined DFA before deployment
// (the ablation benchmarks quantify the table-size effect).

// partition is a refinable partition of the integers [0, n): set s holds
// elems[first[s]:end[s]]. Marking an element moves it to the front of its
// set; split then cuts every set holding both marked and unmarked elements
// in two, the smaller part becoming a new set.
type partition struct {
	elems, loc, setOf  []int32 // loc[e] is e's index in elems
	first, end, marked []int32 // per set
	touched            []int32 // sets with marked elements
}

// newPartition returns the partition of [0, n) into groups, where group[e]
// numbers e's set densely from 0; each set lists its elements ascending.
func newPartition(group []int32, sets int) *partition {
	n := len(group)
	p := &partition{
		elems: make([]int32, n), loc: make([]int32, n), setOf: group,
		first: make([]int32, sets), end: make([]int32, sets), marked: make([]int32, sets),
	}
	for _, s := range group {
		p.end[s]++
	}
	at := int32(0)
	for s := range p.end {
		p.first[s] = at
		at += p.end[s]
		p.end[s] = p.first[s]
	}
	for e, s := range group {
		p.elems[p.end[s]], p.loc[e] = int32(e), p.end[s]
		p.end[s]++
	}
	return p
}

func (p *partition) sets() int { return len(p.first) }

// mark marks e, which must not be marked already.
func (p *partition) mark(e int32) {
	s, i := p.setOf[e], p.loc[e]
	j := p.first[s] + p.marked[s]
	p.elems[i], p.loc[p.elems[j]] = p.elems[j], i
	p.elems[j], p.loc[e] = e, j
	if p.marked[s] == 0 {
		p.touched = append(p.touched, s)
	}
	p.marked[s]++
}

// split cuts every touched set into its marked and unmarked parts and
// clears the marks.
func (p *partition) split() {
	for _, s := range p.touched {
		j := p.first[s] + p.marked[s]
		p.marked[s] = 0
		if j == p.end[s] {
			continue
		}
		z := int32(p.sets())
		if j-p.first[s] <= p.end[s]-j {
			p.first, p.end = append(p.first, p.first[s]), append(p.end, j)
			p.first[s] = j
		} else {
			p.first, p.end = append(p.first, j), append(p.end, p.end[s])
			p.end[s] = j
		}
		p.marked = append(p.marked, 0)
		for _, e := range p.elems[p.first[z]:p.end[z]] {
			p.setOf[e] = z
		}
	}
	p.touched = p.touched[:0]
}

// minimize returns an equivalent DFA with the minimal number of reachable
// states. The start state keeps index 0; the others are numbered in the order
// of their first member state.
func (d *dfa) minimize() *dfa {
	n, k := d.numStates(), len(d.reps)
	if n == 0 {
		return d
	}
	// Live transitions, grouped by class: transition t goes from tail[t] to
	// head[t], and class c's are byClass[c]:byClass[c+1].
	m := 0
	for _, t := range d.next {
		if t != noMatch {
			m++
		}
	}
	tail, head := make([]int32, 0, m), make([]int32, 0, m)
	byClass := make([]int32, k+1)
	for c := 0; c < k; c++ {
		for s := 0; s < n; s++ {
			if t := d.next[s*k+c]; t != noMatch {
				tail, head = append(tail, int32(s)), append(head, t)
			}
		}
		byClass[c+1] = int32(len(tail))
	}
	// The transitions into each state: into[inAt[q]:inAt[q+1]].
	inAt := make([]int32, n+1)
	for _, q := range head {
		inAt[q+1]++
	}
	for q := 0; q < n; q++ {
		inAt[q+1] += inAt[q]
	}
	into, fill := make([]int32, m), append([]int32(nil), inAt[:n]...)
	for t, q := range head {
		into[fill[q]] = int32(t)
		fill[q]++
	}

	// Blocks start by accept value, cords (groups of transitions) by class.
	group := make([]int32, n)
	groupOf := map[int32]int32{}
	for s, a := range d.accept {
		g, ok := groupOf[a]
		if !ok {
			g = int32(len(groupOf))
			groupOf[a] = g
		}
		group[s] = g
	}
	blocks := newPartition(group, len(groupOf))
	cordOf, numCords := make([]int32, m), 0
	for c := 0; c < k; c++ {
		if byClass[c] < byClass[c+1] {
			for t := byClass[c]; t < byClass[c+1]; t++ {
				cordOf[t] = int32(numCords)
			}
			numCords++
		}
	}
	cords := newPartition(cordOf, numCords)

	// Block 0 needs no pass of its own: the cords start as whole classes, so
	// splitting them by every other block leaves block 0's part behind.
	for b, c := 1, 0; c < cords.sets(); c++ {
		for _, t := range cords.elems[cords.first[c]:cords.end[c]] {
			blocks.mark(tail[t])
		}
		blocks.split()
		for ; b < blocks.sets(); b++ {
			for _, q := range blocks.elems[blocks.first[b]:blocks.end[b]] {
				for _, t := range into[inAt[q]:inAt[q+1]] {
					cords.mark(t)
				}
			}
			cords.split()
		}
	}

	// Number the blocks: the start state's 0, the others in the order of
	// their first member state.
	part := blocks.setOf
	remap, member := make([]int32, blocks.sets()), make([]int32, 0, blocks.sets())
	for i := range remap {
		remap[i] = noMatch
	}
	for s := 0; s < n; s++ {
		if remap[part[s]] == noMatch {
			remap[part[s]] = int32(len(member))
			member = append(member, int32(s))
		}
	}
	out := &dfa{next: make([]int32, len(member)*k), accept: make([]int32, len(member)), reps: d.reps, classOf: d.classOf}
	for b, s := range member {
		out.accept[b] = d.accept[s]
		row := out.next[b*k : (b+1)*k]
		for c, t := range d.row(s) {
			if t != noMatch {
				t = remap[part[t]]
			}
			row[c] = t
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
