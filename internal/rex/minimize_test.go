package rex

import (
	"math/rand"
	"testing"
)

func TestMinimizePreservesLanguage(t *testing.T) {
	patterns := []string{
		"abc",
		"a*b*c*",
		"(a|b)+c",
		"[a-z]+@[a-z]+",
		"x(y|z)*w",
		"\\d\\d\\d-\\d\\d\\d",
	}
	rng := rand.New(rand.NewSource(3))
	for _, pat := range patterns {
		re := MustCompile(pat)
		before := re.NumStates()
		min := MustCompile(pat)
		min.Minimize()
		after := min.NumStates()
		if after > before {
			t.Errorf("%q: minimization grew the DFA %d → %d", pat, before, after)
		}
		for trial := 0; trial < 500; trial++ {
			n := rng.Intn(10)
			in := make([]byte, n)
			for i := range in {
				in[i] = "abcxyzw@123-"[rng.Intn(12)]
			}
			if re.Match(in) != min.Match(in) {
				t.Fatalf("%q: minimized DFA disagrees on %q", pat, in)
			}
			if re.MatchPrefix(in) != min.MatchPrefix(in) {
				t.Fatalf("%q: minimized DFA prefix disagrees on %q", pat, in)
			}
		}
	}
}

func TestMinimizeReducesRedundantStates(t *testing.T) {
	// a(b|c)d builds separate paths through b and c that converge; the
	// states after b and after c are equivalent and must merge.
	re := MustCompile("a(b|c)d")
	before := re.NumStates()
	re.Minimize()
	if re.NumStates() >= before {
		t.Errorf("expected reduction, got %d → %d", before, re.NumStates())
	}
	if !re.MatchString("abd") || !re.MatchString("acd") || re.MatchString("ad") {
		t.Error("language changed by minimization")
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	re := MustCompile("(foo|bar|baz)+")
	re.Minimize()
	n1 := re.NumStates()
	re.Minimize()
	if re.NumStates() != n1 {
		t.Errorf("second Minimize changed state count: %d → %d", n1, re.NumStates())
	}
}

func TestMinimizeSetPreservesPriorities(t *testing.T) {
	patterns := []string{"abc", "ab", "a[a-z]*", "abc"}
	plain, err := CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	min, err := CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	min.Minimize()
	if min.NumStates() > plain.NumStates() {
		t.Errorf("set minimization grew DFA %d → %d", plain.NumStates(), min.NumStates())
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		in := make([]byte, n)
		for i := range in {
			in[i] = byte('a' + rng.Intn(4))
		}
		id1, l1 := plain.Match(in)
		id2, l2 := min.Match(in)
		if id1 != id2 || l1 != l2 {
			t.Fatalf("minimized set disagrees on %q: (%d,%d) vs (%d,%d)", in, id1, l1, id2, l2)
		}
	}
}

// Property: for random patterns, the minimized DFA is language-equivalent
// and no larger.
func TestMinimizeRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 150; iter++ {
		pat := randPattern(rng, 3)
		re, err := Compile(pat)
		if err != nil {
			t.Fatalf("Compile(%q): %v", pat, err)
		}
		min, _ := Compile(pat)
		min.Minimize()
		if min.NumStates() > re.NumStates() {
			t.Fatalf("%q grew: %d → %d", pat, re.NumStates(), min.NumStates())
		}
		for trial := 0; trial < 30; trial++ {
			n := rng.Intn(8)
			in := make([]byte, n)
			for i := range in {
				in[i] = "ab0 "[rng.Intn(4)]
			}
			if re.Match(in) != min.Match(in) {
				t.Fatalf("%q disagrees on %q", pat, in)
			}
		}
	}
}

func BenchmarkMinimizeTemplateSet(b *testing.B) {
	var patterns []string
	for i := 0; i < 60; i++ {
		patterns = append(patterns, QuoteMeta("svc")+string(rune('a'+i%26))+": code "+string(rune('0'+i%10))+" .*")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := CompileSet(patterns)
		if err != nil {
			b.Fatal(err)
		}
		s.Minimize()
	}
}

// classDFA builds an automaton over three input classes — every other byte,
// 'a' and 'b' — from rows of targets in that class order.
func classDFA(accept []int32, rows ...[3]int32) *dfa {
	d := &dfa{accept: accept, reps: []byte{0, 'a', 'b'}}
	d.classOf['a'], d.classOf['b'] = 1, 2
	for _, r := range rows {
		d.next = append(d.next, r[:]...)
	}
	return d
}

// TestMinimizeOracleMissingTransitions holds minimize to both oracles on
// automata built by hand around the implicit dead state, and checks the
// states each is expected to keep.
func TestMinimizeOracleMissingTransitions(t *testing.T) {
	const x = noMatch
	for _, tc := range []struct {
		name string
		d    *dfa
		want int // states after minimizing
	}{
		// 1 and 2 accept and differ only in that 1 moves on 'a' to 3, a
		// state that accepts nothing and moves nowhere, where 2 has no
		// move: a move into a dead state is still a move.
		{"move into a dead state", classDFA([]int32{x, 0, 0, x},
			[3]int32{x, 1, 2}, [3]int32{x, 3, x}, [3]int32{x, x, x}, [3]int32{x, x, x}), 4},
		// 1 and 2 differ only by 1's move on 'b' back to the start.
		{"missing move", classDFA([]int32{x, 0, 0},
			[3]int32{x, 1, 2}, [3]int32{x, x, 0}, [3]int32{x, x, x}), 3},
		// 1, 2 and 3 have equal rows; 2 and 3 accept the same pattern.
		{"several accept labels", classDFA([]int32{x, 1, 0, 0},
			[3]int32{3, 1, 2}, [3]int32{x, 1, x}, [3]int32{x, 2, x}, [3]int32{x, 3, x}), 3},
		// Two equivalent loops through the start: 1 and 2 merge.
		{"equivalent loop", classDFA([]int32{0, x, x},
			[3]int32{x, 1, 2}, [3]int32{0, x, x}, [3]int32{0, x, x}), 2},
		{"one state", classDFA([]int32{0}, [3]int32{0, 0, x}), 1},
		{"one state, no moves", classDFA([]int32{x}, [3]int32{x, x, x}), 1},
	} {
		if err := checkMinimizeOracle(tc.d); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if got := tc.d.minimize().numStates(); got != tc.want {
			t.Errorf("%s: minimized to %d states, want %d", tc.name, got, tc.want)
		}
	}
	// The empty language, compiled: one state with no accept and no moves.
	s := mustSet(t, `[^\d\D]`)
	if err := checkMinimizeOracle(s.d); err != nil {
		t.Errorf("empty language: %v", err)
	}
	if s.Minimize(); s.NumStates() != 1 {
		t.Errorf("empty language minimized to %d states, want 1", s.NumStates())
	}
}
