package rex

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// refMatch is a reference backtracking matcher over the AST, used to verify
// the NFA→DFA pipeline. It reports whether n matches input exactly.
func refMatch(n *node, input []byte) bool {
	ends := refEnds(n, input, 0)
	for _, e := range ends {
		if e == len(input) {
			return true
		}
	}
	return false
}

// refEnds returns all positions e such that n matches input[pos:e].
func refEnds(n *node, input []byte, pos int) []int {
	switch n.kind {
	case opEmpty:
		return []int{pos}
	case opClass:
		if pos < len(input) && n.cls.has(input[pos]) {
			return []int{pos + 1}
		}
		return nil
	case opConcat:
		cur := []int{pos}
		for _, sub := range n.subs {
			var next []int
			seen := map[int]bool{}
			for _, p := range cur {
				for _, e := range refEnds(sub, input, p) {
					if !seen[e] {
						seen[e] = true
						next = append(next, e)
					}
				}
			}
			cur = next
			if len(cur) == 0 {
				return nil
			}
		}
		return cur
	case opAlt:
		seen := map[int]bool{}
		var out []int
		for _, sub := range n.subs {
			for _, e := range refEnds(sub, input, pos) {
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
				}
			}
		}
		return out
	case opStar, opPlus:
		// star: reflexive-transitive closure of sub from pos.
		// plus: one application of sub, then the star closure.
		seen := map[int]bool{}
		var out, frontier []int
		if n.kind == opStar {
			seen[pos] = true
			out = append(out, pos)
			frontier = append(frontier, pos)
		} else {
			for _, e := range refEnds(n.subs[0], input, pos) {
				if !seen[e] {
					seen[e] = true
					out = append(out, e)
					frontier = append(frontier, e)
				}
			}
		}
		for len(frontier) > 0 {
			var next []int
			for _, p := range frontier {
				for _, e := range refEnds(n.subs[0], input, p) {
					if !seen[e] {
						seen[e] = true
						next = append(next, e)
						out = append(out, e)
					}
				}
			}
			frontier = next
		}
		return out
	case opQuest:
		out := []int{pos}
		for _, e := range refEnds(n.subs[0], input, pos) {
			if e != pos {
				out = append(out, e)
			}
		}
		return out
	}
	panic("unknown kind")
}

func TestMatchBasics(t *testing.T) {
	tests := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"abc", "abcd", false},
		{"a*", "", true},
		{"a*", "aaaa", true},
		{"a*", "aaab", false},
		{"a+", "", false},
		{"a+", "a", true},
		{"a?b", "b", true},
		{"a?b", "ab", true},
		{"a?b", "aab", false},
		{"a|b|c", "b", true},
		{"a|b|c", "d", false},
		{"(ab)+", "ababab", true},
		{"(ab)+", "aba", false},
		{"[a-z]+", "hello", true},
		{"[a-z]+", "Hello", false},
		{"[^a-z]+", "HELLO123", true},
		{"[^a-z]+", "HELLOx", false},
		{"a.c", "abc", true},
		{"a.c", "a\nc", false},
		{"\\d+", "12345", true},
		{"\\d+", "12a45", false},
		{"\\w+", "foo_Bar9", true},
		{"\\s", " ", true},
		{"\\.", ".", true},
		{"\\.", "x", false},
		{"a\\*b", "a*b", true},
		{"", "", true},
		{"", "x", false},
		{"()", "", true},
		{"x(y|z)*w", "xw", true},
		{"x(y|z)*w", "xyzyzw", true},
		{"x(y|z)*w", "xyzyz", false},
		{"[\\d]+", "42", true},
		{"[ab-]", "-", true},
		{"DVS: verify filesystem: .*", "DVS: verify filesystem: value 0x6969", true},
		{"DVS: verify filesystem: .*", "DVS: file node down", false},
	}
	for _, tt := range tests {
		re, err := Compile(tt.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", tt.pattern, err)
			continue
		}
		if got := re.MatchString(tt.input); got != tt.want {
			t.Errorf("%q.Match(%q) = %v, want %v", tt.pattern, tt.input, got, tt.want)
		}
	}
}

func TestBoundedRepetition(t *testing.T) {
	tests := []struct {
		pattern string
		input   string
		want    bool
	}{
		{"a{3}", "aaa", true},
		{"a{3}", "aa", false},
		{"a{3}", "aaaa", false},
		{"a{2,4}", "aa", true},
		{"a{2,4}", "aaaa", true},
		{"a{2,4}", "a", false},
		{"a{2,4}", "aaaaa", false},
		{"a{2,}", "aa", true},
		{"a{2,}", "aaaaaaa", true},
		{"a{2,}", "a", false},
		{"a{0,2}b", "b", true},
		{"a{0,2}b", "aab", true},
		{"a{0,2}b", "aaab", false},
		{"(ab){2}", "abab", true},
		{"(ab){2}", "ab", false},
		{"[0-9]{3}-[0-9]{4}", "555-1234", true},
		{"[0-9]{3}-[0-9]{4}", "55-1234", false},
		{"\\{a\\}", "{a}", true},
	}
	for _, tt := range tests {
		re, err := Compile(tt.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", tt.pattern, err)
			continue
		}
		if got := re.MatchString(tt.input); got != tt.want {
			t.Errorf("%q.Match(%q) = %v, want %v", tt.pattern, tt.input, got, tt.want)
		}
	}
	for _, bad := range []string{"a{", "a{}", "a{2", "a{3,2}", "a{99999}", "a{1,99999}"} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(ab", "a)", "[abc", "*", "+a", "?", "a\\", "[a\\", "[z-a]", "a|*"}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", p)
		}
	}
}

func TestMatchPrefix(t *testing.T) {
	re := MustCompile("ab+")
	tests := []struct {
		input string
		want  int
	}{
		{"abbbc", 4},
		{"ab", 2},
		{"a", -1},
		{"xab", -1},
		{"", -1},
	}
	for _, tt := range tests {
		if got := re.MatchPrefix([]byte(tt.input)); got != tt.want {
			t.Errorf("MatchPrefix(%q) = %d, want %d", tt.input, got, tt.want)
		}
	}
	// Empty-matching pattern yields prefix length 0, not -1.
	star := MustCompile("a*")
	if got := star.MatchPrefix([]byte("xyz")); got != 0 {
		t.Errorf("a*.MatchPrefix(xyz) = %d, want 0", got)
	}
}

func TestQuoteMeta(t *testing.T) {
	raw := "Lustre: * cannot find peer (1+2)? [x]\\"
	re := MustCompile(QuoteMeta(raw))
	if !re.MatchString(raw) {
		t.Errorf("QuoteMeta(%q) does not match itself", raw)
	}
	if re.MatchString(raw + "x") {
		t.Error("quoted pattern matched extended string")
	}
}

func TestSetPriorityAndLongest(t *testing.T) {
	s, err := CompileSet([]string{
		"abc",     // 0
		"ab",      // 1
		"a[a-z]*", // 2
		"abc",     // 3 duplicate of 0, lower priority
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		input      string
		wantID     int
		wantLength int
	}{
		{"abc", 0, 3},  // longest match; IDs 0,2,3 all match at 3, 0 wins
		{"ab", 1, 2},   // IDs 1 and 2 match at length 2, 1 wins
		{"abz", 2, 3},  // only 2 matches length 3
		{"abcd", 2, 4}, // 2 extends longest
		{"a", 2, 1},    // only 2
		{"zzz", -1, 0}, // none
		{"abX", 1, 2},  // longest is "ab"
	}
	for _, tt := range tests {
		id, n := s.MatchString(tt.input)
		if id != tt.wantID || n != tt.wantLength {
			t.Errorf("Set.Match(%q) = (%d,%d), want (%d,%d)", tt.input, id, n, tt.wantID, tt.wantLength)
		}
	}
}

func TestSetEmpty(t *testing.T) {
	s, err := CompileSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, n := s.MatchString("anything"); id != -1 || n != 0 {
		t.Errorf("empty set matched: (%d,%d)", id, n)
	}
}

// randPattern generates a small random pattern and returns it.
func randPattern(rng *rand.Rand, depth int) string {
	if depth <= 0 {
		// Atom.
		switch rng.Intn(6) {
		case 0:
			return string(rune('a' + rng.Intn(3)))
		case 1:
			return "."
		case 2:
			return "[ab]"
		case 3:
			return "[^a]"
		case 4:
			return "\\d"
		default:
			return string(rune('a' + rng.Intn(3)))
		}
	}
	switch rng.Intn(5) {
	case 0:
		return randPattern(rng, depth-1) + randPattern(rng, depth-1)
	case 1:
		return "(" + randPattern(rng, depth-1) + "|" + randPattern(rng, depth-1) + ")"
	case 2:
		return "(" + randPattern(rng, depth-1) + ")*"
	case 3:
		return "(" + randPattern(rng, depth-1) + ")?"
	default:
		return "(" + randPattern(rng, depth-1) + ")+"
	}
}

// Property: the DFA agrees with the reference backtracking matcher on random
// patterns and random short inputs.
func TestDFAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("ab0 ")
	for iter := 0; iter < 300; iter++ {
		pattern := randPattern(rng, 3)
		ast, err := parsePattern(pattern)
		if err != nil {
			t.Fatalf("generated unparsable pattern %q: %v", pattern, err)
		}
		re, err := Compile(pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", pattern, err)
		}
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(8)
			input := make([]byte, n)
			for i := range input {
				input[i] = alphabet[rng.Intn(len(alphabet))]
			}
			want := refMatch(ast, input)
			if got := re.Match(input); got != want {
				t.Fatalf("pattern %q input %q: dfa=%v ref=%v", pattern, input, got, want)
			}
		}
	}
}

// Property: a set match ID, when defined, is a pattern that individually
// matches the returned prefix; and no pattern matches a longer prefix.
func TestSetConsistentWithSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		k := 1 + rng.Intn(4)
		patterns := make([]string, k)
		singles := make([]*Regexp, k)
		for i := range patterns {
			patterns[i] = randPattern(rng, 2)
			singles[i] = MustCompile(patterns[i])
		}
		set, err := CompileSet(patterns)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			n := rng.Intn(6)
			input := make([]byte, n)
			for i := range input {
				input[i] = byte('a' + rng.Intn(3))
			}
			id, length := set.Match(input)
			best, bestID := -1, -1
			for i, re := range singles {
				if l := re.MatchPrefix(input); l > best {
					best, bestID = l, i
				}
			}
			if best == -1 {
				if id != -1 {
					t.Fatalf("patterns %q input %q: set matched (%d,%d), singles matched nothing", patterns, input, id, length)
				}
				continue
			}
			if length != best || id != bestID {
				t.Fatalf("patterns %q input %q: set=(%d,%d) singles=(%d,%d)", patterns, input, id, length, bestID, best)
			}
		}
	}
}

// Property (testing/quick): QuoteMeta of arbitrary ASCII strings compiles and
// matches exactly that string.
func TestQuoteMetaProperty(t *testing.T) {
	f := func(raw string) bool {
		// Restrict to printable ASCII to keep the property readable; the
		// engine is byte-oriented so this is representative.
		var sb strings.Builder
		for _, r := range raw {
			if r >= 32 && r < 127 {
				sb.WriteRune(r)
			}
		}
		s := sb.String()
		re, err := Compile(QuoteMeta(s))
		if err != nil {
			return false
		}
		return re.MatchString(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTemplateSet(t *testing.T) {
	// Compile a realistic-sized template inventory and confirm scans work.
	var patterns []string
	for i := 0; i < 120; i++ {
		patterns = append(patterns, QuoteMeta("subsystem")+string(rune('a'+i%26))+": event "+string(rune('0'+i%10))+" .*")
	}
	set, err := CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	id, n := set.MatchString("subsystemc: event 2 extra payload")
	if id == -1 || n == 0 {
		t.Fatalf("large set failed to match: (%d,%d)", id, n)
	}
	if set.NumStates() == 0 {
		t.Error("no DFA states")
	}
}

func BenchmarkSetMatch(b *testing.B) {
	var patterns []string
	for i := 0; i < 60; i++ {
		patterns = append(patterns, QuoteMeta("svc")+string(rune('a'+i%26))+": code "+string(rune('0'+i%10))+" .*")
	}
	set, err := CompileSet(patterns)
	if err != nil {
		b.Fatal(err)
	}
	input := []byte("svcq: code 4 node c0-0c2s0n2 timed out waiting for heartbeat reply")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Match(input)
	}
}

// TestNFAStatesExact: buildNFA's one allocation of the state slice is
// exactly the states the construction makes, for every operator.
func TestNFAStatesExact(t *testing.T) {
	var asts []*node
	for _, p := range []string{"", "a", "abc", "a|bc|", "(ab)*c", "x+y?", "[a-f]{2,4}z", "(a|b+)*(c?d)+"} {
		ast, err := parsePattern(p)
		if err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		n := buildNFA([]*node{ast})
		if len(n.states) != cap(n.states) {
			t.Errorf("%q: %d states in a slice sized for %d", p, len(n.states), cap(n.states))
		}
		asts = append(asts, ast)
	}
	if n := buildNFA(asts); len(n.states) != cap(n.states) {
		t.Errorf("all patterns: %d states in a slice sized for %d", len(n.states), cap(n.states))
	}
}
