package rex

import (
	"slices"
	"strings"
	"testing"
)

func mustSet(t *testing.T, patterns ...string) *Set {
	t.Helper()
	s, err := CompileSet(patterns)
	if err != nil {
		t.Fatalf("CompileSet(%q): %v", patterns, err)
	}
	return s
}

func TestIntersects(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want bool
	}{
		{"disjoint literals", "abc", "abd", false},
		{"disjoint prefixed wildcards", `DVS: .*`, `LNet: .*`, false},
		{"identical", "abc", "abc", true},
		{"nested", `LNet: .*`, `LNet: critical .*`, true},
		{"partial overlap", `a.*b`, `.*cb`, true},
		{"wildcard vs literal", `.*`, "x", true},
		{"class overlap", `[ab]x`, `[bc]x`, true},
		{"class disjoint", `[ab]x`, `[cd]x`, false},
		{"suffix wildcards disjoint heads", `err: .*`, `warn: .*`, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSet(t, tc.a, tc.b)
			w, ok := s.Intersects(0, 1)
			if ok != tc.want {
				t.Fatalf("Intersects(%q, %q) = (%q, %v), want ok=%v", tc.a, tc.b, w, ok, tc.want)
			}
			if !ok {
				return
			}
			// The witness must be matched exactly by both patterns.
			for pi, p := range []string{tc.a, tc.b} {
				re := MustCompile(p)
				if !re.MatchString(w) {
					t.Errorf("witness %q not matched by pattern %d %q", w, pi, p)
				}
			}
		})
	}
}

func TestIntersectsWitnessShortest(t *testing.T) {
	s := mustSet(t, `ab.*z`, `.*z`)
	w, ok := s.Intersects(0, 1)
	if !ok {
		t.Fatal("expected overlap")
	}
	if len(w) != 3 { // "abz" is the shortest common string
		t.Errorf("witness %q, want a 3-byte witness like \"abz\"", w)
	}
}

func TestCovers(t *testing.T) {
	tests := []struct {
		name   string
		a, b   string
		covers bool
	}{
		{"wildcard covers literal", `.*`, "abc", true},
		{"prefix wildcard covers refinement", `LNet: .*`, `LNet: critical .*`, true},
		{"identical covers", "abc", "abc", true},
		{"literal does not cover wildcard", "abc", `ab.*`, false},
		{"partial overlap is not coverage", `a.*b`, `.*cb`, false},
		{"disjoint is not coverage", "abc", "abd", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSet(t, tc.a, tc.b)
			counter, covers := s.Covers(0, 1)
			if covers != tc.covers {
				t.Fatalf("Covers(%q, %q) = (%q, %v), want %v", tc.a, tc.b, counter, covers, tc.covers)
			}
			if covers {
				return
			}
			// The counterexample is in L(b) \ L(a).
			if !MustCompile(tc.b).MatchString(counter) {
				t.Errorf("counterexample %q not matched by %q", counter, tc.b)
			}
			if MustCompile(tc.a).MatchString(counter) {
				t.Errorf("counterexample %q matched by %q, should not be", counter, tc.a)
			}
		})
	}
}

func TestIntersectsWitnessPrintable(t *testing.T) {
	// Patterns over printable text should get printable witnesses.
	s := mustSet(t, `DVS: .* down`, `DVS: node5 .*`)
	w, ok := s.Intersects(0, 1)
	if !ok {
		t.Fatal("expected overlap")
	}
	for _, r := range w {
		if r < 0x20 || r > 0x7e {
			t.Fatalf("witness %q contains non-printable byte %#x", w, r)
		}
	}
	if !strings.HasPrefix(w, "DVS: ") {
		t.Errorf("witness %q does not start with the shared literal prefix", w)
	}
}

func TestDeadStates(t *testing.T) {
	// Healthy pattern sets have no dead states: every subset-construction
	// state is a viable prefix of some pattern.
	s := mustSet(t, `abc.*`, `ab`, `[xy]z`)
	if dead := s.DeadStates(); len(dead) != 0 {
		t.Errorf("DeadStates = %v, want none", dead)
	}
}

// TestDeadStatesDefective: on sets with unsatisfiable tails, DeadStates lists
// exactly the states from which a forward walk over all 256 columns reaches
// no accepting state.
func TestDeadStatesDefective(t *testing.T) {
	for _, patterns := range [][]string{
		{`ab[^\d\D]c`, `xy`},
		{`DVS: .*[^\d\D]`, `DVS: verify .*`, `LNet: [^\d\D]+`},
		{`[^\d\D]`},
	} {
		s := mustSet(t, patterns...)
		d := s.d.expand256()
		var want []int
		for si := range d.states {
			seen := map[int32]bool{int32(si): true}
			stack, alive := []int32{int32(si)}, false
			for len(stack) > 0 && !alive {
				st := &d.states[stack[len(stack)-1]]
				stack = stack[:len(stack)-1]
				alive = st.accept != noMatch
				for _, next := range st.next {
					if next != noMatch && !seen[next] {
						seen[next] = true
						stack = append(stack, next)
					}
				}
			}
			if !alive {
				want = append(want, si)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%q: no dead states to find", patterns)
		}
		if got := s.DeadStates(); !slices.Equal(got, want) {
			t.Errorf("%q: DeadStates = %v, want %v", patterns, got, want)
		}
	}
}

// TestOverlapsMatchPairwise: Overlaps lists, in (I, J) order, exactly the
// pairs where Intersects or Covers reports, with Covers' verdict and
// Intersects' witness — also for patterns that match nothing, which every
// earlier pattern covers without a witness.
func TestOverlapsMatchPairwise(t *testing.T) {
	for _, patterns := range [][]string{
		{`ab.*z`, `.*z`, `abz`, `a[bc]z`, `q`},
		{`LNet: .*`, `LNet: critical .*`, `LNet: critical .*`, `.*`, `DVS.*`, `DVS: verify .*`},
		{`x`, `[^\d\D]`, `x.*`, `y[^\d\D]`, ``},
		// Equal-length witnesses that searchByteOrder ranks: "x " before
		// " x", and '!' first for a byte any class holds.
		{`.* .*`, `.*x.*`, `a.b`, `a[^x]b`, `.*\x00.*`, `.*\x01.*`},
	} {
		s := mustSet(t, patterns...)
		var want []Overlap
		for i := range patterns {
			for j := i + 1; j < len(patterns); j++ {
				_, covers := s.Covers(i, j)
				w, meet := s.Intersects(i, j)
				if covers || meet {
					want = append(want, Overlap{I: i, J: j, Covers: covers, Witness: w})
				}
			}
		}
		if got := s.Overlaps(); !slices.Equal(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", patterns, got, want)
		}
	}
}
