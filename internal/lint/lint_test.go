package lint

import (
	"strings"
	"testing"
)

func TestHotpathFixture(t *testing.T) {
	RunFixture(t, Hotpath, "testdata/src/hotpath")
}

func TestLockBlockFixture(t *testing.T) {
	RunFixture(t, LockBlock, "testdata/src/lockblock")
}

func TestMustCloseFixture(t *testing.T) {
	RunFixture(t, MustClose, "testdata/src/mustclose")
}

func TestDurableFixture(t *testing.T) {
	RunFixture(t, Durable, "testdata/src/durable")
}

func TestLayeringFixture(t *testing.T) {
	// The layering fixture is a tree of sibling packages (one per layer), so
	// the pattern recurses where the single-package fixtures do not.
	RunFixture(t, Layering, "testdata/src/layering/...")
}

func TestUnsafeFixture(t *testing.T) {
	// One package per case: an owner of recycled storage, a plain package,
	// and a suppressed import.
	RunFixture(t, Unsafe, "testdata/src/unsafe/...")
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v; want the full suite", len(all), err)
	}
	two, err := Select("hotpath, durable")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "hotpath" || two[1].Name != "durable" {
		t.Fatalf("Select(hotpath, durable) = %v", two)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("Select(nope) err = %v; want unknown-analyzer error", err)
	}
}

func TestParseWants(t *testing.T) {
	got, err := parseWants("// want \"one\" `two \\[x\\]`")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != `two \[x\]` {
		t.Fatalf("parseWants = %q", got)
	}
	if got, _ := parseWants("// plain comment"); got != nil {
		t.Fatalf("non-want comment parsed as %q", got)
	}
	if _, err := parseWants("// want unquoted"); err == nil {
		t.Fatal("unquoted want did not error")
	}
}

// TestLoadSelf loads this package — a smoke test that the export-data loader
// handles a real module package with project imports.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load("", []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Name != "lint" {
		t.Fatalf("Load(.) = %+v", pkgs)
	}
	if pkgs[0].Module != "repro" {
		t.Fatalf("module = %q, want repro", pkgs[0].Module)
	}
	if names := fixtureFuncNames(pkgs[0]); len(names) == 0 {
		t.Fatal("no functions found in loaded package")
	}
}
