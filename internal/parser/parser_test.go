package parser

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

var t0 = time.Date(2015, 3, 14, 4, 58, 57, 640_000_000, time.UTC)

// fc3RuleSet builds the Table III chain (FC3) plus the Table IV pair, giving
// a rule set with shared subchains and multiple starting phrases.
func fc3RuleSet(t testing.TB) *core.RuleSet {
	rs, err := core.TranslateFCs([]core.FailureChain{
		{Name: "FC3", Phrases: []core.PhraseID{174, 140, 129, 175, 134, 127}},
		{Name: "FC1", Phrases: []core.PhraseID{176, 177, 178, 179, 180, 137}},
		{Name: "FC5", Phrases: []core.PhraseID{172, 177, 178, 193, 137}},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// toks builds a token stream for one node from (phrase, offset-seconds)
// pairs.
func toks(node string, pairs ...[2]float64) []core.Token {
	out := make([]core.Token, len(pairs))
	for i, p := range pairs {
		out[i] = core.Token{
			Phrase: core.PhraseID(p[0]),
			Time:   t0.Add(time.Duration(p[1] * float64(time.Second))),
			Node:   node,
		}
	}
	return out
}

func TestTableIIIChainMatch(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "c0-0c2s0n2")
	// Exact ΔTs from Table III: 0, 8.3, 80.5, 24.8, 22.6, 130.1 seconds
	// between adjacent phrases (cumulative below).
	stream := toks("c0-0c2s0n2",
		[2]float64{174, 0},
		[2]float64{140, 8.3},
		[2]float64{129, 88.8},
		[2]float64{175, 113.6},
		[2]float64{134, 136.2},
		[2]float64{127, 266.3},
	)
	var pred *Prediction
	for i, tok := range stream {
		p := d.Feed(tok)
		if i < len(stream)-1 && p != nil {
			t.Fatalf("premature prediction at token %d: %v", i, p)
		}
		if i == len(stream)-1 {
			pred = p
		}
	}
	if pred == nil {
		t.Fatal("no prediction after full FC3")
	}
	if pred.ChainName != "FC3" || pred.ChainIndex != 0 {
		t.Errorf("prediction chain = %s/%d, want FC3/0", pred.ChainName, pred.ChainIndex)
	}
	if pred.Length != 6 {
		t.Errorf("prediction length = %d, want 6", pred.Length)
	}
	if !pred.FirstAt.Equal(stream[0].Time) || !pred.MatchedAt.Equal(stream[5].Time) {
		t.Errorf("prediction times = %v..%v", pred.FirstAt, pred.MatchedAt)
	}
	st := d.Stats()
	if st.Matches != 1 || st.Consumed != 6 || st.Skipped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSkipsNonChainTokensWithinTimeout(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	// FC5 = 172 177 178 193 137, with FC1-phrases (179, 4≡irrelevant here)
	// interleaved — mirrors the paper's Fig. 4 walk-through where the parser
	// skips mismatches and continues.
	stream := toks("n1",
		[2]float64{172, 0},
		[2]float64{177, 5},
		[2]float64{179, 7}, // belongs to FC1's middle, unexpected here → skip
		[2]float64{178, 10},
		[2]float64{176, 12}, // could *start* FC1 → interleaved skip
		[2]float64{193, 15},
		[2]float64{137, 20},
	)
	preds := d.ParseStream(stream)
	if len(preds) != 1 || preds[0].ChainName != "FC5" {
		t.Fatalf("predictions = %v, want one FC5", preds)
	}
	st := d.Stats()
	if st.Skipped != 2 {
		t.Errorf("skipped = %d, want 2", st.Skipped)
	}
	if st.Interleaved != 1 {
		t.Errorf("interleaved = %d, want 1 (token 176)", st.Interleaved)
	}
}

func TestIrrelevantPhrasesIgnored(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	stream := toks("n1",
		[2]float64{174, 0},
		[2]float64{999, 1}, // not in any chain
		[2]float64{140, 2},
	)
	d.ParseStream(stream)
	st := d.Stats()
	if st.Irrelevant != 1 || st.Tokens != 2 || st.Consumed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTimeoutResetsParse(t *testing.T) {
	rs := fc3RuleSet(t) // default timeout 4 min
	d := New(rs, "n1")
	stream := toks("n1",
		[2]float64{174, 0},
		[2]float64{140, 10},
		// 20-minute gap: the partial FC3 match must be abandoned.
		[2]float64{129, 1210},
		[2]float64{175, 1215},
		[2]float64{134, 1220},
		[2]float64{127, 1225},
	)
	preds := d.ParseStream(stream)
	if len(preds) != 0 {
		t.Fatalf("predictions across a timeout gap = %v, want none", preds)
	}
	st := d.Stats()
	if st.TimeoutResets != 1 {
		t.Errorf("timeout resets = %d, want 1", st.TimeoutResets)
	}
	// After the reset the driver must still be able to match a full chain.
	fresh := toks("n1",
		[2]float64{174, 2000},
		[2]float64{140, 2010},
		[2]float64{129, 2020},
		[2]float64{175, 2030},
		[2]float64{134, 2040},
		[2]float64{127, 2050},
	)
	if preds := d.ParseStream(fresh); len(preds) != 1 {
		t.Fatalf("post-reset predictions = %v, want 1", preds)
	}
}

func TestTimeoutRestartsWithCurrentToken(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	// Partial FC3, then after a long gap a *full* FC1 starting at the gap
	// token: Algorithm 2 resets and restarts with the current token, so FC1
	// must match.
	stream := toks("n1",
		[2]float64{174, 0},
		[2]float64{140, 5},
		[2]float64{176, 800}, // gap > 4 min; starts FC1
		[2]float64{177, 805},
		[2]float64{178, 810},
		[2]float64{179, 815},
		[2]float64{180, 820},
		[2]float64{137, 825},
	)
	preds := d.ParseStream(stream)
	if len(preds) != 1 || preds[0].ChainName != "FC1" {
		t.Fatalf("predictions = %v, want one FC1", preds)
	}
}

func TestBackToBackMatches(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	var pairs [][2]float64
	base := 0.0
	for rep := 0; rep < 3; rep++ {
		for i, ph := range []float64{174, 140, 129, 175, 134, 127} {
			pairs = append(pairs, [2]float64{ph, base + float64(i)*5})
		}
		base += 100
	}
	preds := d.ParseStream(toks("n1", pairs...))
	if len(preds) != 3 {
		t.Fatalf("got %d predictions, want 3", len(preds))
	}
	for _, p := range preds {
		if p.ChainName != "FC3" {
			t.Errorf("prediction = %v, want FC3", p)
		}
	}
}

func TestHealthyStreamNoFalsePositives(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	// A stream of FC-related phrases in an order that never completes a
	// chain (each chain's terminal phrase never follows a full prefix).
	stream := toks("n1",
		[2]float64{140, 0}, [2]float64{129, 3}, [2]float64{174, 6},
		[2]float64{177, 9}, [2]float64{178, 12}, [2]float64{175, 15},
		[2]float64{180, 18}, [2]float64{193, 21}, [2]float64{176, 24},
	)
	if preds := d.ParseStream(stream); len(preds) != 0 {
		t.Fatalf("false positives on healthy stream: %v", preds)
	}
}

func TestResetClearsPartialState(t *testing.T) {
	rs := fc3RuleSet(t)
	d := New(rs, "n1")
	d.ParseStream(toks("n1", [2]float64{174, 0}, [2]float64{140, 1}))
	if !d.Active() {
		t.Fatal("driver should have a partial match")
	}
	d.Reset()
	if d.Active() {
		t.Fatal("Reset did not clear activity")
	}
	// Completing the remainder of FC3 alone must NOT match now.
	preds := d.ParseStream(toks("n1",
		[2]float64{129, 2}, [2]float64{175, 3}, [2]float64{134, 4}, [2]float64{127, 5}))
	if len(preds) != 0 {
		t.Fatalf("matched after reset: %v", preds)
	}
}

// Property: inserting relevant-but-skippable noise tokens (with small ΔT)
// into a chain never changes the match outcome, and removing any single
// chain phrase prevents that match.
func TestNoiseInsensitivityProperty(t *testing.T) {
	rs := fc3RuleSet(t)
	chain := []float64{174, 140, 129, 175, 134, 127}
	noise := []float64{177, 178, 179, 180, 193} // relevant to other chains
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		var pairs [][2]float64
		tsec := 0.0
		for _, ph := range chain {
			// Insert 0-3 noise tokens before each chain phrase.
			for k := rng.Intn(4); k > 0; k-- {
				pairs = append(pairs, [2]float64{noise[rng.Intn(len(noise))], tsec})
				tsec += rng.Float64() * 2
			}
			pairs = append(pairs, [2]float64{ph, tsec})
			tsec += rng.Float64() * 10
		}
		d := New(rs, "n1")
		preds := d.ParseStream(toks("n1", pairs...))
		if len(preds) != 1 || preds[0].ChainName != "FC3" {
			t.Fatalf("iter %d: predictions = %v, want one FC3 (stream %v)", iter, preds, pairs)
		}
	}
	// Dropping one chain phrase → no match.
	for drop := 0; drop < len(chain); drop++ {
		var pairs [][2]float64
		for i, ph := range chain {
			if i == drop {
				continue
			}
			pairs = append(pairs, [2]float64{ph, float64(i) * 5})
		}
		d := New(rs, "n1")
		if preds := d.ParseStream(toks("n1", pairs...)); len(preds) != 0 {
			t.Fatalf("drop %d still matched: %v", drop, preds)
		}
	}
}

// Property: any gap larger than the timeout between consecutive *consumed*
// phrases of a chain prevents the match.
func TestTimeoutGapProperty(t *testing.T) {
	rs := fc3RuleSet(t)
	chain := []float64{174, 140, 129, 175, 134, 127}
	for gapAt := 1; gapAt < len(chain); gapAt++ {
		var pairs [][2]float64
		tsec := 0.0
		for i, ph := range chain {
			if i == gapAt {
				tsec += (4 * 60) + 1 // just over the default timeout
			} else if i > 0 {
				tsec += 5
			}
			pairs = append(pairs, [2]float64{ph, tsec})
		}
		d := New(rs, "n1")
		if preds := d.ParseStream(toks("n1", pairs...)); len(preds) != 0 {
			t.Fatalf("gap at %d still matched: %v", gapAt, preds)
		}
	}
	// Exactly at the timeout boundary the chain still matches (> is the
	// violation condition, per "∆T≤Timeout → Skip Token, Continue").
	var pairs [][2]float64
	for i, ph := range chain {
		pairs = append(pairs, [2]float64{ph, float64(i) * 4 * 60})
	}
	d := New(rs, "n1")
	if preds := d.ParseStream(toks("n1", pairs...)); len(preds) != 1 {
		t.Fatalf("boundary ΔT=timeout should match, got %v", preds)
	}
}

// A chain carrying its own, longer ΔT threshold must survive gaps the
// default would cut: the driver honors the laxest applicable timeout.
func TestChainSpecificTimeout(t *testing.T) {
	rs, err := core.TranslateFCs([]core.FailureChain{
		{Name: "SLOW", Phrases: []core.PhraseID{11, 12, 13}, Timeout: 10 * time.Minute},
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := New(rs, "n1")
	// 6-minute gaps: beyond the 4-minute default, within the chain's 10.
	preds := d.ParseStream(toks("n1",
		[2]float64{11, 0}, [2]float64{12, 360}, [2]float64{13, 720}))
	if len(preds) != 1 {
		t.Fatalf("slow chain not matched across 6-minute gaps: %v", preds)
	}
	// But an 11-minute gap still resets.
	d2 := New(rs, "n1")
	preds = d2.ParseStream(toks("n1",
		[2]float64{11, 0}, [2]float64{12, 661}, [2]float64{13, 700}))
	if len(preds) != 0 {
		t.Fatalf("matched across an 11-minute gap: %v", preds)
	}
}

// TestFeedRejectedTokenAllocs: a token the active parse rejects costs no
// allocation — CanStart reads a table built with the LALR tables. The single
// driver meets one that could start another rule (the interleaved case); the
// multi-instance driver, one that starts none (one that does spawns an
// instance, which allocates).
func TestFeedRejectedTokenAllocs(t *testing.T) {
	rs := fc3RuleSet(t)
	for _, c := range []struct {
		name  string
		feed  func(core.Token) *Prediction
		other core.PhraseID
	}{
		{"single", New(rs, "n1").Feed, 176},     // would start FC1
		{"multi", NewMulti(rs, "n1").Feed, 129}, // inside FC3, starts nothing
	} {
		start := toks("n1", [2]float64{174, 0}, [2]float64{float64(c.other), 1})
		c.feed(start[0]) // FC3 is active
		c.feed(start[1]) // warm the machine's stack buffers
		if avg := testing.AllocsPerRun(100, func() {
			if p := c.feed(start[1]); p != nil {
				t.Fatalf("%s: rejected token predicted %v", c.name, p)
			}
		}); avg != 0 {
			t.Errorf("%s: Feed of a rejected token allocates %.1f times, want 0", c.name, avg)
		}
	}
}

func BenchmarkFeedChain18(b *testing.B) {
	// An 18-phrase chain, the paper's headline configuration (0.31 ms).
	phrases := make([]core.PhraseID, 18)
	for i := range phrases {
		phrases[i] = core.PhraseID(200 + i)
	}
	rs, err := core.TranslateFCs([]core.FailureChain{{Name: "FC18", Phrases: phrases}}, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	stream := make([]core.Token, len(phrases))
	for i, p := range phrases {
		stream[i] = core.Token{Phrase: p, Time: t0.Add(time.Duration(i) * time.Second), Node: "n"}
	}
	d := New(rs, "n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tok := range stream {
			d.Feed(tok)
		}
	}
}
