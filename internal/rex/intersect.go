package rex

import "slices"

// Language analysis over compiled pattern sets: which patterns' languages
// meet or contain one another, and dead-state detection. These back the
// aarohivet scanner-overlap check — two templates whose languages overlap are
// resolved by priority online, so the loser may never produce its token; a
// concrete witness string goes into the report.
//
// Overlaps answers for every pair at once from the set's own DFA: each state
// of the subset construction records the patterns that accept there, so two
// patterns meet iff some state holds both, and pattern i's language contains
// pattern j's iff every state that holds j holds i. Intersects and Covers
// answer for one pair through the product of the two single-pattern DFAs;
// they are the reference Overlaps is tested against.

// searchByteOrder ranks bytes for witness construction: printable ASCII
// first (space last among them, so words form before padding), then the
// rest, so reported witnesses read like log text whenever possible.
var searchByteOrder = func() [256]byte {
	var order [256]byte
	n := 0
	for b := '!'; b <= '~'; b++ {
		order[n] = byte(b)
		n++
	}
	order[n] = ' '
	n++
	for b := 0; b < 256; b++ {
		if (b >= '!' && b <= '~') || b == ' ' {
			continue
		}
		order[n] = byte(b)
		n++
	}
	return order
}()

// patternDFA compiles pattern i of the set alone. The pattern parsed once
// already in CompileSet, so a parse failure here is impossible.
func (s *Set) patternDFA(i int) *dfa {
	ast, err := parsePattern(s.patterns[i])
	if err != nil {
		panic("rex: pattern re-parse failed: " + err.Error())
	}
	return buildDFA(buildNFA([]*node{ast}))
}

// productPair is one state of the product automaton. b == sinkState marks
// the second DFA's implicit dead (error) state, which the product keeps
// traversable so the complement language stays visible.
type productPair struct{ a, b int32 }

const sinkState int32 = -1

// productSearch runs a BFS over the product of a and b for the shortest
// byte string that a accepts and whose membership in b equals wantB
// (wantB=true: string in L(a) ∩ L(b); wantB=false: string in L(a) \ L(b)).
func productSearch(a, b *dfa, wantB bool) ([]byte, bool) {
	type step struct {
		from productPair
		c    byte
	}
	accepts := func(p productPair) bool {
		if a.accept[p.a] == noMatch {
			return false
		}
		inB := p.b != sinkState && b.accept[p.b] != noMatch
		return inB == wantB
	}
	reconstruct := func(prev map[productPair]step, end productPair) []byte {
		var rev []byte
		for end != (productPair{0, 0}) {
			st := prev[end]
			rev = append(rev, st.c)
			end = st.from
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}

	start := productPair{0, 0}
	if accepts(start) {
		return []byte{}, true
	}
	prev := map[productPair]step{}
	seen := map[productPair]bool{start: true}
	queue := []productPair{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, c := range searchByteOrder {
			na := a.step(p.a, c)
			if na == noMatch {
				// a's dead state can never reach an accept of a; prune.
				continue
			}
			nb := sinkState
			if p.b != sinkState {
				nb = b.step(p.b, c)
			}
			np := productPair{na, nb}
			if seen[np] {
				continue
			}
			seen[np] = true
			prev[np] = step{p, c}
			if accepts(np) {
				return reconstruct(prev, np), true
			}
			queue = append(queue, np)
		}
	}
	return nil, false
}

// Intersects reports whether the languages of patterns i and j overlap,
// returning a shortest witness string matched by both. Priority resolution
// makes overlap operationally significant: every input in the intersection
// is claimed by one of the two patterns only (the longest match, then the
// lowest ID), so the other never sees it.
func (s *Set) Intersects(i, j int) (witness string, ok bool) {
	w, ok := productSearch(s.patternDFA(i), s.patternDFA(j), true)
	if !ok {
		return "", false
	}
	return string(w), true
}

// Covers reports whether pattern i's language contains pattern j's: every
// string j matches, i matches too. Since the scanner resolves equal-length
// matches toward the lower ID, Covers(i, j) with i < j means pattern j can
// never win a match — it is fully shadowed. When i does not cover j, counter
// is a shortest string matched by j but not by i.
func (s *Set) Covers(i, j int) (counter string, covers bool) {
	w, ok := productSearch(s.patternDFA(j), s.patternDFA(i), false)
	if !ok {
		return "", true
	}
	return string(w), false
}

// Overlap is a pair of patterns I < J whose languages meet, or whose earlier
// pattern's language contains the later one's.
type Overlap struct {
	I, J int
	// Covers reports that every string J matches, I matches too, as
	// Covers(I, J) does.
	Covers bool
	// Witness is the string Intersects(I, J) returns: the shortest string
	// both match, least in searchByteOrder among those, or "" when they
	// share none (J matches nothing, and I covers it vacuously).
	Witness string
}

// Overlaps returns, ordered by I then J, every pair that Intersects or
// Covers reports on, from one breadth-first walk of the set's DFA. The walk
// visits each state's successors in searchByteOrder, so it reaches every
// state first by that state's least string, shortest first and then in
// searchByteOrder, and it reaches states in the order of those strings. The
// least string that two patterns both match therefore leads to the first
// state reached that holds both: the same string the product search for the
// pair finds, since a language has one least string. It needs the accepting
// sets the subset construction records, so it panics on a minimized set.
func (s *Set) Overlaps() []Overlap {
	d := s.d
	if d.acceptAt == nil {
		panic("rex: Overlaps on a minimized Set")
	}
	// One byte per input class, the class's first in searchByteOrder: the
	// later bytes of a class reach the same state.
	var order []byte
	var seen [256]bool
	for _, b := range searchByteOrder {
		if c := d.classOf[b]; !seen[c] {
			seen[c] = true
			order = append(order, b)
		}
	}

	np := len(s.patterns)
	// cover[j] holds, once j has accepted somewhere (met[j]), the patterns
	// below j that have accepted in every state where j has.
	cover, met := make([][]int32, np), make([]bool, np)
	firstMet := map[[2]int32]int32{} // pair -> first state holding both
	from := make([]int32, d.numStates())
	via := make([]byte, d.numStates())
	for i := range from {
		from[i] = noMatch
	}
	queue := []int32{0}
	from[0] = 0
	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		acc := d.acceptSet(st)
		for x, j := range acc {
			for _, i := range acc[:x] {
				if _, ok := firstMet[[2]int32{i, j}]; !ok {
					firstMet[[2]int32{i, j}] = st
				}
			}
			if !met[j] {
				met[j], cover[j] = true, slices.Clone(acc[:x])
			} else {
				cover[j] = intersectSorted(cover[j], acc[:x])
			}
		}
		for _, b := range order {
			if t := d.step(st, b); t != noMatch && from[t] == noMatch {
				from[t], via[t] = st, b
				queue = append(queue, t)
			}
		}
	}

	witness := func(st int32) string {
		var rev []byte
		for ; st != 0; st = from[st] {
			rev = append(rev, via[st])
		}
		slices.Reverse(rev)
		return string(rev)
	}
	var out []Overlap
	for pair, st := range firstMet {
		i, j := pair[0], pair[1]
		_, covers := slices.BinarySearch(cover[j], i)
		out = append(out, Overlap{I: int(i), J: int(j), Covers: covers, Witness: witness(st)})
	}
	for j := range np {
		if !met[j] {
			for i := range j {
				out = append(out, Overlap{I: i, J: j, Covers: true})
			}
		}
	}
	slices.SortFunc(out, func(a, b Overlap) int {
		if a.I != b.I {
			return a.I - b.I
		}
		return a.J - b.J
	})
	return out
}

// intersectSorted keeps the elements of a that are also in b; both ascend.
func intersectSorted(a, b []int32) []int32 {
	out, k := a[:0], 0
	for _, v := range a {
		for k < len(b) && b[k] < v {
			k++
		}
		if k < len(b) && b[k] == v {
			out = append(out, v)
		}
	}
	return out
}

// DeadStates returns the states of the combined DFA from which no accepting
// state is reachable (the implicit error sink is not counted). The subset
// construction only creates states for viable pattern prefixes, so a
// non-empty result indicates a defective pattern (e.g. an empty character
// class) whose matches can never complete.
func (s *Set) DeadStates() []int {
	d := s.d
	n := d.numStates()
	// Reverse edges: from[at[t]:at[t+1]] are the states with an edge into t.
	at := make([]int32, n+1)
	for _, t := range d.next {
		if t != noMatch {
			at[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		at[t+1] += at[t]
	}
	from, fill := make([]int32, at[n]), slices.Clone(at[:n])
	for si := range n {
		for _, t := range d.row(int32(si)) {
			if t != noMatch {
				from[fill[t]] = int32(si)
				fill[t]++
			}
		}
	}
	// Reverse reachability from accepting states.
	alive := make([]bool, n)
	var stack []int32
	for si, a := range d.accept {
		if a != noMatch {
			alive[si] = true
			stack = append(stack, int32(si))
		}
	}
	for len(stack) > 0 {
		si := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range from[at[si]:at[si+1]] {
			if !alive[p] {
				alive[p] = true
				stack = append(stack, p)
			}
		}
	}
	var dead []int
	for si := range alive {
		if !alive[si] {
			dead = append(dead, si)
		}
	}
	return dead
}
