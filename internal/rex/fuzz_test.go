package rex

import (
	"strings"
	"testing"
)

// FuzzCompileAndMatch feeds arbitrary pattern/input pairs: Compile must
// either fail cleanly or produce a matcher that never panics, whose minimized
// tables equal the 256-column oracle's, and whose minimized/packed forms agree
// with the original.
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
		re, err := Compile(pattern)
		if err != nil {
			return
		}
		got := re.Match([]byte(input))
		set, err := CompileSet([]string{pattern})
		if err != nil {
			t.Fatalf("CompileSet failed where Compile succeeded: %v", err)
		}
		if err := checkMinimizeOracle(set.d); err != nil {
			t.Fatalf("pattern %q: %v", pattern, err)
		}
		set.Minimize()
		set.Pack()
		id, n := set.Match([]byte(input))
		full := id == 0 && n == len(input)
		if full != got {
			t.Fatalf("pattern %q input %q: Regexp=%v Set(min+pack) full-match=%v", pattern, input, got, full)
		}
	})
}
