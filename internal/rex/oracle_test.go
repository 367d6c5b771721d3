package rex

import "fmt"

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
