package rex

import (
	"math/rand"
	"testing"
)

func TestPackPreservesMatches(t *testing.T) {
	patterns := []string{
		"abc",
		"DVS: verify filesystem: .*",
		"[a-z]+ [0-9]+",
		"(err|warn)(ing)?: .*",
	}
	plain, err := CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := CompileSet(patterns)
	if err != nil {
		t.Fatal(err)
	}
	packed.Pack()
	if packed.NumClasses() == 0 || packed.NumClasses() > 256 {
		t.Fatalf("NumClasses = %d", packed.NumClasses())
	}
	if packed.TableBytes() >= plain.TableBytes() {
		t.Errorf("packing did not shrink tables: %d → %d bytes", plain.TableBytes(), packed.TableBytes())
	}
	rng := rand.New(rand.NewSource(4))
	inputs := []string{
		"abc", "abcd", "DVS: verify filesystem: magic 0x6969",
		"warn: disk pressure", "err: oom", "erring: x", "zzz 123", "",
	}
	for _, in := range inputs {
		i1, l1 := plain.MatchString(in)
		i2, l2 := packed.MatchString(in)
		if i1 != i2 || l1 != l2 {
			t.Fatalf("packed disagrees on %q: (%d,%d) vs (%d,%d)", in, i1, l1, i2, l2)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(20)
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(rng.Intn(256))
		}
		i1, l1 := plain.Match(in)
		i2, l2 := packed.Match(in)
		if i1 != i2 || l1 != l2 {
			t.Fatalf("packed disagrees on %q: (%d,%d) vs (%d,%d)", in, i1, l1, i2, l2)
		}
	}
}

func TestPackIdempotentAndMinimizeInvalidates(t *testing.T) {
	s, err := CompileSet([]string{"foo.*", "bar"})
	if err != nil {
		t.Fatal(err)
	}
	s.Pack()
	c1 := s.NumClasses()
	s.Pack()
	if s.NumClasses() != c1 {
		t.Error("Pack not idempotent")
	}
	s.Minimize()
	if s.NumClasses() != 0 {
		t.Error("Minimize should drop the packed form")
	}
	s.Pack()
	if id, n := s.MatchString("fooxyz"); id != 0 || n != 6 {
		t.Errorf("post-minimize+pack match = (%d,%d)", id, n)
	}
}

func TestPackTinyAlphabet(t *testing.T) {
	// A single-literal pattern has 1 distinct non-dead column per position;
	// classes must stay small.
	s, err := CompileSet([]string{"aaaa"})
	if err != nil {
		t.Fatal(err)
	}
	s.Pack()
	if s.NumClasses() > 3 {
		t.Errorf("classes = %d for single-letter pattern, want ≤ 3", s.NumClasses())
	}
}

func BenchmarkPackedVsPlainScan(b *testing.B) {
	var patterns []string
	for i := 0; i < 40; i++ {
		patterns = append(patterns, QuoteMeta("svc")+string(rune('a'+i%26))+": event "+string(rune('0'+i%10))+" .*")
	}
	input := []byte("svcq: event 4 node c0-0c2s0n2 timed out waiting for heartbeat reply")
	b.Run("plain", func(b *testing.B) {
		s, _ := CompileSet(patterns)
		s.Minimize()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Match(input)
		}
	})
	b.Run("packed", func(b *testing.B) {
		s, _ := CompileSet(patterns)
		s.Minimize()
		s.Pack()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Match(input)
		}
	})
}

// TestPackedLayoutKinds: template-shaped patterns lay out every kind of
// state the scan treats specially — literal runs, accelerated non-accepting
// states (an interior wildcard) and accelerated accepting states (a trailing
// one) — and each shortcut gives the dense DFA's answer at its edges.
func TestPackedLayoutKinds(t *testing.T) {
	s, err := CompileSet([]string{"DVS: verify_filesystem: .*", "Lustre: .* cannot find peer .*", "DVS: file_node_down"})
	if err != nil {
		t.Fatal(err)
	}
	s.Minimize()
	dense := s.d
	s.Pack()
	p := s.packed
	if lits := (p.plainLo - 1) / 3; lits == 0 {
		t.Error("no literal-run heads")
	}
	if p.acceptLo == p.accelLo {
		t.Error("no accelerated non-accepting state (interior wildcard)")
	}
	if p.accelHi == p.acceptLo {
		t.Error("no accelerated accepting state (trailing wildcard)")
	}
	for _, in := range []string{
		"DVS: verify_filesystem: magic 0x6969",
		"DVS: verify_filesystem: magic\n0x6969",
		"DVS: verify_filesystem: ",
		"DVS: verify_files",      // the input ends inside a literal run
		"DVS: verify_filesXstem", // a mismatch inside a literal run
		"DVS: file_node_down",
		"DVS: file_node_downstairs",
		"Lustre: 12 cannot find peer c0-0c0s1n2",
		"Lustre: 12 cannot find peer c0-0c0s1n2\nmore",
		"Lustre: cannot cannot find peer ",
		"Lustre: 12 cannot\nfind peer x",
		"Lustre: 12 cannot find pe",
		"",
		"\n",
	} {
		wantID, wantLen := dfaRun(dense, in)
		if id, n := s.MatchString(in); id != wantID || n != wantLen {
			t.Errorf("MatchString(%q) = (%d, %d), dense (%d, %d)", in, id, n, wantID, wantLen)
		}
		if id, n := s.Match([]byte(in)); id != wantID || n != wantLen {
			t.Errorf("Match(%q) = (%d, %d), dense (%d, %d)", in, id, n, wantID, wantLen)
		}
	}
}
