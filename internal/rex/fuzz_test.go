package rex

import (
	"strings"
	"testing"
)

// FuzzCompileAndMatch feeds arbitrary pattern/input pairs. The fuzz pattern
// is split at NUL bytes into one to three patterns of one set. Compile must
// either fail cleanly or produce a matcher that never panics, whose tables
// equal the 256-column construction's, whose minimized tables equal both
// Moore refinements' (class columns and 256 columns), and whose minimized,
// packed scan gives the unminimized DFA's (id, length) on the input, as a
// string and as a []byte.
func FuzzCompileAndMatch(f *testing.F) {
	seeds := []struct{ pattern, input string }{
		{"abc", "abc"},
		{"a*b+c?", "aaabbc"},
		{"(x|y)*z", "xyxyz"},
		{"[a-f0-9]+", "deadbeef"},
		{"\\d+\\.\\d+", "3.14"},
		{"", ""},
		{"[^\\n]*", "anything goes"},
		{"((((deep))))", "deep"},
		// A trailing .* (an accelerated accepting state).
		{"DVS: verify .*", "DVS: verify magic 0x6969"},
		// A literal run cut short by the end of the input.
		{"Kernel panic - not syncing: .*", "Kernel pan"},
		// A '\n' after an accelerated state, trailing and interior.
		{"ab.*", "abcd\nef"},
		{"Lustre: .* cannot find peer .*", "Lustre: x cannot\n find peer y"},
		// Several patterns sharing prefixes and wildcards.
		{"DVS: verify.*\x00DVS: file.*\x00Lustre: .* peer .*", "Lustre: a peer b"},
		{"abc\x00abcdef\x00ab.*f", "abcdeg"},
		// Two literal runs that join: "p" ends where "qabcd"'s suffix starts.
		{"(xq|yp)abcd", "ypabcd"},
		// '\n' shares its byte class with \x0b, which also leaves.
		{"a[^\\n\x0b]*", "abc\x0bdef"},
	}
	for _, s := range seeds {
		f.Add(s.pattern, s.input)
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || len(input) > 256 {
			return // keep DFA construction bounded
		}
		if strings.Count(pattern, "*")+strings.Count(pattern, "+") > 8 {
			return
		}
		patterns := strings.SplitN(pattern, "\x00", 3)
		set, err := CompileSet(patterns)
		if err != nil {
			return
		}
		re, err := Compile(patterns[0])
		if err != nil {
			t.Fatalf("Compile failed where CompileSet succeeded: %v", err)
		}
		if err := CheckBuildOracle(patterns); err != nil {
			t.Fatalf("patterns %q: %v", patterns, err)
		}
		if err := checkMinimizeOracle(set.d); err != nil {
			t.Fatalf("patterns %q: %v", patterns, err)
		}
		wantID, wantLen := dfaRun(set.d, input)
		set.Minimize()
		set.Pack()
		id, n := set.MatchString(input)
		if id != wantID || n != wantLen {
			t.Fatalf("patterns %q input %q: packed (%d, %d), dense (%d, %d)", patterns, input, id, n, wantID, wantLen)
		}
		if bid, bn := set.Match([]byte(input)); bid != id || bn != n {
			t.Fatalf("patterns %q input %q: MatchString (%d, %d), Match (%d, %d)", patterns, input, id, n, bid, bn)
		}
		// Pattern 0 wins every tie, so it matches the whole input exactly
		// when the set's longest match is pattern 0 over all of it.
		if full, got := id == 0 && n == len(input), re.MatchString(input); full != got {
			t.Fatalf("patterns %q input %q: Regexp=%v Set(min+pack) full-match=%v", patterns, input, got, full)
		}
	})
}
