package rex

import (
	"bytes"
	"fmt"
	"slices"
)

// minimize256 is the reference refinement: the same Moore partition
// refinement as dfa.minimize, but with signatures over all 256 byte columns
// instead of one column per input class. minimize must produce exactly its
// tables.
func (d *dfa) minimize256() *dfa {
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

// CheckMinimizeOracle compiles patterns into one set and reports an error
// unless minimizing it yields exactly the tables of the 256-column
// refinement. Exported to the external tests, which feed it inventories from
// packages that import rex.
func CheckMinimizeOracle(patterns []string) error {
	s, err := CompileSet(patterns)
	if err != nil {
		return err
	}
	return checkMinimizeOracle(s.d)
}

func checkMinimizeOracle(d *dfa) error {
	got, want := d.minimize(), d.minimize256()
	if len(got.states) != len(want.states) {
		return fmt.Errorf("minimized to %d states, oracle %d", len(got.states), len(want.states))
	}
	for i := range got.states {
		if got.states[i] != want.states[i] {
			return fmt.Errorf("state %d differs from the oracle's (accept %d vs %d)", i, got.states[i].accept, want.states[i].accept)
		}
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
func buildDFA256(n *nfa) *dfa {
	mark := make([]int, len(n.states))
	for i := range mark {
		mark[i] = -1
	}
	gen := 0
	startSet := closure256(n, []int{n.start}, mark, gen)
	gen++
	d := &dfa{reps: reps256(n)}
	index := map[string]int32{}

	var intern func(set []int) int32
	intern = func(set []int) int32 {
		key := setKey256(set)
		if id, ok := index[key]; ok {
			return id
		}
		id := int32(len(d.states))
		st := dfaState{accept: noMatch}
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
	got, want := buildDFA(n), buildDFA256(n)
	if !bytes.Equal(got.reps, want.reps) {
		return nil, fmt.Errorf("reps %q, oracle %q", got.reps, want.reps)
	}
	for b, c := range got.classOf {
		if got.reps[c] > byte(b) || !sameMove256All(n, got.reps[c], byte(b)) {
			return nil, fmt.Errorf("byte %#x in the class of %#x", b, got.reps[c])
		}
	}
	if len(got.states) != len(want.states) {
		return nil, fmt.Errorf("%d states, oracle %d", len(got.states), len(want.states))
	}
	for i := range got.states {
		if got.states[i] != want.states[i] {
			return nil, fmt.Errorf("state %d differs from the oracle's (accept %d vs %d)", i, got.states[i].accept, want.states[i].accept)
		}
	}
	return got, nil
}

// checkAcceptSets holds every state's accepting set to the patterns, each
// compiled alone, that fully match one string leading to the state: all the
// strings that lead to a state are matched by the same patterns.
func checkAcceptSets(d *dfa, alone []*dfa) error {
	if len(d.acceptAt) != len(d.states)+1 {
		return fmt.Errorf("%d accepting sets for %d states", len(d.acceptAt)-1, len(d.states))
	}
	path := make([][]byte, len(d.states))
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
		if a := d.states[s].accept; len(want) > 0 && a != want[0] || len(want) == 0 && a != noMatch {
			return fmt.Errorf("state %d accepts %d, accepting set %v", s, a, want)
		}
		for _, b := range d.reps {
			if t := d.states[s].next[b]; t != noMatch && path[t] == nil {
				path[t] = append(append([]byte{}, path[s]...), b)
				queue = append(queue, t)
			}
		}
	}
	return nil
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
