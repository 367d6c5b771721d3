package rex

// Thompson NFA construction. Each pattern compiles into a fragment with a
// single start state and a single dangling accept state; fragments compose by
// ε-transitions exactly as in the textbook construction (Aho/Sethi/Ullman,
// the paper's reference [26]).

// nfaState is one NFA state. A state has at most one byte-class transition
// (to out) plus any number of ε-transitions.
type nfaState struct {
	cls    class // valid when out >= 0
	out    int   // class-transition target, -1 if none
	eps    []int // ε-transition targets
	accept int   // pattern ID accepted at this state, -1 if none
}

// nfa is a complete automaton for one or more patterns.
type nfa struct {
	states []nfaState
	start  int
}

type nfaBuilder struct {
	states []nfaState
}

func (b *nfaBuilder) newState() int {
	b.states = append(b.states, nfaState{out: -1, accept: -1})
	return len(b.states) - 1
}

func (b *nfaBuilder) addEps(from, to int) {
	b.states[from].eps = append(b.states[from].eps, to)
}

// frag is a partially built automaton with one entry and one exit state.
type frag struct {
	start, end int
}

// build compiles an AST node into a fragment.
func (b *nfaBuilder) build(n *node) frag {
	switch n.kind {
	case opEmpty:
		s := b.newState()
		e := b.newState()
		b.addEps(s, e)
		return frag{s, e}
	case opClass:
		s := b.newState()
		e := b.newState()
		b.states[s].cls = n.cls
		b.states[s].out = e
		return frag{s, e}
	case opConcat:
		first := b.build(n.subs[0])
		prev := first
		for _, sub := range n.subs[1:] {
			next := b.build(sub)
			b.addEps(prev.end, next.start)
			prev = next
		}
		return frag{first.start, prev.end}
	case opAlt:
		s := b.newState()
		e := b.newState()
		for _, sub := range n.subs {
			f := b.build(sub)
			b.addEps(s, f.start)
			b.addEps(f.end, e)
		}
		return frag{s, e}
	case opStar:
		s := b.newState()
		e := b.newState()
		f := b.build(n.subs[0])
		b.addEps(s, f.start)
		b.addEps(s, e)
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		return frag{s, e}
	case opPlus:
		f := b.build(n.subs[0])
		e := b.newState()
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		return frag{f.start, e}
	case opQuest:
		s := b.newState()
		e := b.newState()
		f := b.build(n.subs[0])
		b.addEps(s, f.start)
		b.addEps(s, e)
		b.addEps(f.end, e)
		return frag{s, e}
	default:
		panic("rex: unknown node kind")
	}
}

// buildNFA compiles the given ASTs into one NFA whose accept states carry the
// index of the pattern they belong to.
func buildNFA(asts []*node) *nfa {
	size := 1
	for _, ast := range asts {
		size += nfaStates(ast)
	}
	b := &nfaBuilder{states: make([]nfaState, 0, size)}
	start := b.newState()
	for id, ast := range asts {
		f := b.build(ast)
		b.addEps(start, f.start)
		b.states[f.end].accept = id
	}
	return &nfa{states: b.states, start: start}
}

// nfaStates returns the number of states build makes for n, so that
// buildNFA allocates the state slice once: two per node but a concatenation
// (none) and a plus (one).
func nfaStates(n *node) int {
	c := 2
	switch n.kind {
	case opConcat:
		c = 0
	case opPlus:
		c = 1
	}
	for _, sub := range n.subs {
		c += nfaStates(sub)
	}
	return c
}

// byteClasses partitions the byte alphabet into the classes no transition of
// n tells apart — two bytes share a class when every state's byte class holds
// both or neither. It returns each byte's class and the smallest byte of each
// class, ascending; classes are numbered in that order. Subset construction
// moves on a byte only by which state classes hold it, so all bytes of one
// class have identical DFA columns.
func (n *nfa) byteClasses() (classOf [256]uint8, reps []byte) {
	var id [256]int32 // class of each byte; all start in class 0
	classes := int32(1)
	seen := map[class]bool{}
	for i := range n.states {
		st := &n.states[i]
		if st.out < 0 || seen[st.cls] {
			continue
		}
		seen[st.cls] = true
		// Split every class by membership in st.cls.
		split := make([][2]int32, classes)
		for j := range split {
			split[j] = [2]int32{-1, -1}
		}
		next := int32(0)
		for b := 0; b < 256; b++ {
			in := 0
			if st.cls.has(byte(b)) {
				in = 1
			}
			k := &split[id[b]][in]
			if *k < 0 {
				*k = next
				next++
			}
			id[b] = *k
		}
		classes = next
	}
	// The last split numbered classes in order of their smallest byte.
	reps = make([]byte, 0, classes)
	for b := 0; b < 256; b++ {
		if id[b] == int32(len(reps)) {
			reps = append(reps, byte(b))
		}
		classOf[b] = uint8(id[b])
	}
	return classOf, reps
}
