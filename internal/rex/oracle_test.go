package rex

import (
	"bytes"
	"fmt"
	"slices"
)

// dfa256 is the reference layout: every state a dense 256-way table. The
// oracles below build and minimize in it, and a class-width dfa expands into
// it to be compared with them.
type dfa256 struct {
	states []state256
	reps   []byte
}

type state256 struct {
	next   [256]int32
	accept int32
}

// expand256 writes d's rows out to 256 targets a state.
func (d *dfa) expand256() *dfa256 {
	out := &dfa256{states: make([]state256, d.numStates()), reps: d.reps}
	for s := range out.states {
		st, row := &out.states[s], d.row(int32(s))
		st.accept = d.accept[s]
		for b, c := range d.classOf {
			st.next[b] = row[c]
		}
	}
	return out
}

func (d *dfa256) equal(o *dfa256) error {
	if !bytes.Equal(d.reps, o.reps) {
		return fmt.Errorf("reps %q, oracle %q", d.reps, o.reps)
	}
	if len(d.states) != len(o.states) {
		return fmt.Errorf("%d states, oracle %d", len(d.states), len(o.states))
	}
	for i := range d.states {
		if d.states[i] != o.states[i] {
			return fmt.Errorf("state %d differs from the oracle's (accept %d vs %d)", i, d.states[i].accept, o.states[i].accept)
		}
	}
	return nil
}

// minimize256 is the reference refinement: Moore rounds with signatures
// over all 256 byte columns instead of one column per input class.
// minimize must produce exactly its tables.
func (d *dfa256) minimize256() *dfa256 {
	n := len(d.states)
	if n == 0 {
		return d
	}
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
	sigBuf := make([]byte, 0, (256+1)*4)
	for {
		index := map[string]int32{}
		next := make([]int32, n)
		for i, st := range d.states {
			sigBuf = sigBuf[:0]
			sigBuf = appendInt32(sigBuf, part[i])
			for b := 0; b < 256; b++ {
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
	out := &dfa256{states: make([]state256, numClasses), reps: d.reps}
	built := make([]bool, numClasses)
	for i, st := range d.states {
		cls := remap[part[i]]
		if built[cls] {
			continue
		}
		built[cls] = true
		ns := state256{accept: st.accept}
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

// minimizeMoore is the class-column refinement minimize used before the
// partition refinement: Moore rounds, states split by (accept, successor
// blocks) until a round splits nothing, with the dead state (-1) as an
// implicit block of its own and a state's block found through an
// open-addressing table of signature hashes. minimize must produce exactly
// its tables.
func (d *dfa) minimizeMoore() *dfa {
	n, k := d.numStates(), len(d.reps)
	if n == 0 {
		return d
	}
	succ := d.next
	part := make([]int32, n)
	blockOf := map[int32]int32{}
	for i, a := range d.accept {
		id, ok := blockOf[a]
		if !ok {
			id = int32(len(blockOf))
			blockOf[a] = id
		}
		part[i] = id
	}
	numBlocks := len(blockOf)
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
	out := &dfa{next: make([]int32, numBlocks*k), accept: make([]int32, numBlocks), reps: d.reps, classOf: d.classOf}
	built := make([]bool, numBlocks)
	for i := 0; i < n; i++ {
		b := remap[part[i]]
		if built[b] {
			continue
		}
		built[b] = true
		out.accept[b] = d.accept[i]
		for c := 0; c < k; c++ {
			t := succ[i*k+c]
			if t != noMatch {
				t = remap[part[t]]
			}
			out.next[int(b)*k+c] = t
		}
	}
	return out
}

// CheckMinimizeOracle compiles patterns into one set and reports an error
// unless minimizing it yields exactly the tables of the Moore refinement,
// over class columns and over all 256 byte columns. Exported to the external
// tests, which feed it inventories from packages that import rex.
func CheckMinimizeOracle(patterns []string) error {
	s, err := CompileSet(patterns)
	if err != nil {
		return err
	}
	return checkMinimizeOracle(s.d)
}

func checkMinimizeOracle(d *dfa) error {
	got, moore := d.minimize(), d.minimizeMoore()
	if !slices.Equal(got.accept, moore.accept) || !slices.Equal(got.next, moore.next) || !bytes.Equal(got.reps, moore.reps) || got.classOf != moore.classOf {
		return fmt.Errorf("minimized to %d states, not the Moore refinement's %d", got.numStates(), moore.numStates())
	}
	if err := got.expand256().equal(d.expand256().minimize256()); err != nil {
		return fmt.Errorf("minimized against the 256-column refinement: %w", err)
	}
	return nil
}

// NewPackedOracle compiles patterns into one minimized set and returns a
// check that the packed scan table gives the dense dfaRun's (id, length) on
// an input, as a string and as a []byte. Exported to the external tests, which
// feed it dialect inventories and generated messages.
func NewPackedOracle(patterns []string) (func(input string) error, error) {
	s, err := CompileSet(patterns)
	if err != nil {
		return nil, err
	}
	s.Minimize()
	s.Pack()
	return func(input string) error {
		wantID, wantLen := dfaRun(s.d, input)
		if id, n := scanPacked(s.packed, input); id != wantID || n != wantLen {
			return fmt.Errorf("packed scan of %q = (%d, %d), dense (%d, %d)", input, id, n, wantID, wantLen)
		}
		if id, n := scanPacked(s.packed, []byte(input)); id != wantID || n != wantLen {
			return fmt.Errorf("packed scan of []byte %q = (%d, %d), dense (%d, %d)", input, id, n, wantID, wantLen)
		}
		return nil
	}, nil
}

// buildDFA256 is the reference subset construction: a recursive intern that
// numbers each new subset as it meets it, visits the 256 bytes of every state
// in order, and fills the later bytes that leave the same NFA states in one
// pass. buildDFA must produce exactly its states.
func buildDFA256(n *nfa) *dfa256 {
	mark := make([]int, len(n.states))
	for i := range mark {
		mark[i] = -1
	}
	gen := 0
	startSet := closure256(n, []int{n.start}, mark, gen)
	gen++
	d := &dfa256{reps: reps256(n)}
	index := map[string]int32{}

	var intern func(set []int) int32
	intern = func(set []int) int32 {
		key := setKey256(set)
		if id, ok := index[key]; ok {
			return id
		}
		id := int32(len(d.states))
		st := state256{accept: noMatch}
		for i := range st.next {
			st.next[i] = noMatch
		}
		for _, s := range set {
			if a := n.states[s].accept; a >= 0 && (st.accept == noMatch || int32(a) < st.accept) {
				st.accept = int32(a)
			}
		}
		d.states = append(d.states, st)
		index[key] = id
		var moved []int
		for b := 0; b < 256; b++ {
			if d.states[id].next[b] != noMatch {
				continue
			}
			moved = moved[:0]
			for _, s := range set {
				ns := &n.states[s]
				if ns.out >= 0 && ns.cls.has(byte(b)) {
					moved = append(moved, ns.out)
				}
			}
			if len(moved) == 0 {
				continue
			}
			closed := closure256(n, moved, mark, gen)
			gen++
			target := intern(closed)
			d.states[id].next[b] = target
			for b2 := b + 1; b2 < 256; b2++ {
				if d.states[id].next[b2] == noMatch && sameMove256(n, set, byte(b), byte(b2)) {
					d.states[id].next[b2] = target
				}
			}
		}
		return id
	}
	intern(startSet)
	return d
}

// reps256 returns, ascending, every byte that no smaller byte matches in
// the class of each NFA state: the smallest byte of each input class.
func reps256(n *nfa) []byte {
	var reps []byte
	for b := 0; b < 256; b++ {
		rep := true
		for b0 := 0; b0 < b && rep; b0++ {
			rep = !sameMove256All(n, byte(b0), byte(b))
		}
		if rep {
			reps = append(reps, byte(b))
		}
	}
	return reps
}

func sameMove256All(n *nfa, b1, b2 byte) bool {
	for i := range n.states {
		ns := &n.states[i]
		if ns.out >= 0 && ns.cls.has(b1) != ns.cls.has(b2) {
			return false
		}
	}
	return true
}

func sameMove256(n *nfa, set []int, b1, b2 byte) bool {
	for _, s := range set {
		ns := &n.states[s]
		if ns.out >= 0 && ns.cls.has(b1) != ns.cls.has(b2) {
			return false
		}
	}
	return true
}

func closure256(n *nfa, set []int, mark []int, gen int) []int {
	stack := append([]int(nil), set...)
	var out []int
	for _, s := range set {
		mark[s] = gen
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, s)
		for _, t := range n.states[s].eps {
			if mark[t] != gen {
				mark[t] = gen
				stack = append(stack, t)
			}
		}
	}
	slices.Sort(out)
	return out
}

func setKey256(set []int) string {
	buf := make([]byte, 0, len(set)*3)
	for _, s := range set {
		for s >= 0x80 {
			buf = append(buf, byte(s)|0x80)
			s >>= 7
		}
		buf = append(buf, byte(s))
	}
	return string(buf)
}

// CheckBuildOracle reports an error unless buildDFA gives exactly the
// reference construction's states and reps, on the set of all patterns and
// on each pattern alone, and the accepting set it records for each state
// holds exactly the patterns that match a string leading there. Exported to
// the external tests, which feed it dialect inventories.
func CheckBuildOracle(patterns []string) error {
	asts := make([]*node, len(patterns))
	for i, p := range patterns {
		ast, err := parsePattern(p)
		if err != nil {
			return fmt.Errorf("pattern %d: %w", i, err)
		}
		asts[i] = ast
	}
	d, err := checkBuildOracle(buildNFA(asts))
	if err != nil {
		return fmt.Errorf("set of %d: %w", len(patterns), err)
	}
	alone := make([]*dfa, len(asts))
	for i, ast := range asts {
		if alone[i], err = checkBuildOracle(buildNFA([]*node{ast})); err != nil {
			return fmt.Errorf("pattern %d %q alone: %w", i, patterns[i], err)
		}
	}
	return checkAcceptSets(d, alone)
}

func checkBuildOracle(n *nfa) (*dfa, error) {
	got := buildDFA(n)
	for b, c := range got.classOf {
		if got.reps[c] > byte(b) || !sameMove256All(n, got.reps[c], byte(b)) {
			return nil, fmt.Errorf("byte %#x in the class of %#x", b, got.reps[c])
		}
	}
	return got, got.expand256().equal(buildDFA256(n))
}

// checkAcceptSets holds every state's accepting set to the patterns, each
// compiled alone, that fully match one string leading to the state: all the
// strings that lead to a state are matched by the same patterns.
func checkAcceptSets(d *dfa, alone []*dfa) error {
	if len(d.acceptAt) != d.numStates()+1 {
		return fmt.Errorf("%d accepting sets for %d states", len(d.acceptAt)-1, d.numStates())
	}
	path := make([][]byte, d.numStates())
	path[0] = []byte{}
	queue := []int32{0}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		var want []int32
		for p, a := range alone {
			if id, n := a.run(path[s]); id != noMatch && n == len(path[s]) {
				want = append(want, int32(p))
			}
		}
		if got := d.acceptSet(s); !slices.Equal(got, want) {
			return fmt.Errorf("state %d (reached by %q) records accepting patterns %v, want %v", s, path[s], got, want)
		}
		if a := d.accept[s]; len(want) > 0 && a != want[0] || len(want) == 0 && a != noMatch {
			return fmt.Errorf("state %d accepts %d, accepting set %v", s, a, want)
		}
		for c, t := range d.row(s) {
			if t != noMatch && path[t] == nil {
				path[t] = append(append([]byte{}, path[s]...), d.reps[c])
				queue = append(queue, t)
			}
		}
	}
	return nil
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
