package rex

import (
	"fmt"
)

// Subset construction from the NFA to a dense DFA. Accept priorities follow
// flex semantics: when a DFA state contains accept states of several
// patterns, the lowest pattern ID wins.

const noMatch = -1

// dfaState has a dense 256-way transition table plus the accepted pattern ID
// (or noMatch).
type dfaState struct {
	next   [256]int32
	accept int32
}

// dfa is a deterministic automaton over bytes.
type dfa struct {
	states []dfaState
	// reps holds one byte per input class of the NFA the automaton was built
	// from (see nfa.byteReps): bytes of one class take the same transition
	// out of every state, so a pass over reps sees every distinct column.
	reps []byte
}

// buildDFA determinizes n via subset construction.
func buildDFA(n *nfa) *dfa {
	mark := make([]int, len(n.states))
	for i := range mark {
		mark[i] = -1
	}
	gen := 0

	startSet := n.closure([]int{n.start}, mark, gen)
	gen++

	d := &dfa{reps: n.byteReps()}
	index := map[string]int32{}

	var intern func(set []int) int32
	intern = func(set []int) int32 {
		key := setKey(set)
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

		// Group the byte alphabet by target set to avoid recomputing the
		// closure 256 times when many bytes behave identically.
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
			closed := n.closure(moved, mark, gen)
			gen++
			target := intern(closed)
			// Fill every later byte with the identical move set in one pass.
			d.states[id].next[b] = target
			for b2 := b + 1; b2 < 256; b2++ {
				if d.states[id].next[b2] != noMatch {
					continue
				}
				if sameMove(n, set, byte(b), byte(b2)) {
					d.states[id].next[b2] = target
				}
			}
		}
		return id
	}

	intern(startSet)
	return d
}

// sameMove reports whether bytes b1 and b2 lead out of exactly the same NFA
// states within set.
func sameMove(n *nfa, set []int, b1, b2 byte) bool {
	for _, s := range set {
		ns := &n.states[s]
		if ns.out < 0 {
			continue
		}
		if ns.cls.has(b1) != ns.cls.has(b2) {
			return false
		}
	}
	return true
}

// setKey builds a map key from a sorted state set.
func setKey(set []int) string {
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

// dfaRun scans input from the start and returns the pattern ID and length of
// the longest match (ties broken toward the lowest ID at the same length), or
// (noMatch, 0) when no prefix matches. It is generic over string and []byte
// so the per-line MatchString path never copies its input: methods cannot
// take type parameters, so the scanner step lives in a free function. The
// loop indexes rather than ranges — ranging a string yields runes.
//
//aarohi:hotpath
func dfaRun[T ~string | ~[]byte](d *dfa, input T) (id, length int) {
	st := int32(0)
	id, length = noMatch, 0
	if a := d.states[0].accept; a != noMatch {
		id, length = int(a), 0
	}
	for i := 0; i < len(input); i++ {
		st = d.states[st].next[input[i]]
		if st == noMatch {
			return id, length
		}
		if a := d.states[st].accept; a != noMatch {
			id, length = int(a), i+1
		}
	}
	return id, length
}

func (d *dfa) run(input []byte) (id, length int) { return dfaRun(d, input) }

// Regexp is a compiled single pattern.
type Regexp struct {
	pattern string
	d       *dfa
}

// Compile parses and compiles one pattern.
func Compile(pattern string) (*Regexp, error) {
	ast, err := parsePattern(pattern)
	if err != nil {
		return nil, err
	}
	return &Regexp{pattern: pattern, d: buildDFA(buildNFA([]*node{ast}))}, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// Pattern returns the source pattern.
func (re *Regexp) Pattern() string { return re.pattern }

func (re *Regexp) String() string { return fmt.Sprintf("rex(%q)", re.pattern) }

// MatchString reports whether the pattern matches the entire string. It runs
// the automaton over the string directly — no []byte conversion, no copy.
func (re *Regexp) MatchString(s string) bool {
	id, n := dfaRun(re.d, s)
	return id != noMatch && n == len(s)
}

// Match reports whether the pattern matches the entire input.
func (re *Regexp) Match(b []byte) bool {
	id, n := re.d.run(b)
	return id != noMatch && n == len(b)
}

// MatchPrefix returns the length of the longest prefix of b matched by the
// pattern, or -1 when no prefix (not even the empty one) matches.
func (re *Regexp) MatchPrefix(b []byte) int {
	id, n := re.d.run(b)
	if id == noMatch {
		return -1
	}
	return n
}

// NumStates reports the DFA size; exposed for tests and ablation benchmarks.
func (re *Regexp) NumStates() int { return len(re.d.states) }

// Set is a prioritized union of patterns compiled into a single DFA — the
// combined scanner automaton. Pattern IDs are their indices in the slice
// passed to CompileSet; lower indices take priority on equal-length matches,
// matching flex's rule-order semantics.
type Set struct {
	patterns []string
	d        *dfa
	packed   *packedDFA // non-nil after Pack; used by Match when present
}

// CompileSet compiles all patterns into one DFA.
func CompileSet(patterns []string) (*Set, error) {
	asts := make([]*node, len(patterns))
	for i, p := range patterns {
		ast, err := parsePattern(p)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		asts[i] = ast
	}
	return &Set{patterns: append([]string(nil), patterns...), d: buildDFA(buildNFA(asts))}, nil
}

// Size returns the number of patterns in the set.
func (s *Set) Size() int { return len(s.patterns) }

// NumStates reports the combined DFA size.
func (s *Set) NumStates() int { return len(s.d.states) }

// Match scans input from the start and returns the ID of the matching
// pattern and the match length. The longest match wins; among patterns
// matching at the same longest length the smallest ID wins. Returns (-1, 0)
// when no pattern matches a prefix of input.
func (s *Set) Match(input []byte) (id, length int) {
	if s.packed != nil {
		return scanPacked(s.packed, input)
	}
	return dfaRun(s.d, input)
}

// MatchString is Match on a string, running the automaton over the string
// directly — the per-line scan path must not copy every message into a
// fresh []byte.
func (s *Set) MatchString(input string) (id, length int) {
	if s.packed != nil {
		return scanPacked(s.packed, input)
	}
	return dfaRun(s.d, input)
}
