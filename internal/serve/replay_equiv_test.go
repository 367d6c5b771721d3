package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/registry"
	"repro/internal/wal"
)

// Boot replay scans the journal in chunks on several goroutines and hands the
// Manager only the tokens, in journal order, so a restarted daemon must end
// where the uninterrupted one did. These tests journal a stream with
// malformed lines, a NUL-led line (journaled under the escape prefix) and a
// model hot-swap, crash, restart, and compare the replay against the run that
// wrote the journal: recovered outputs, scanner counters, the recovery report
// and the arbiter's serialized state.

// attributedKey is outKey plus the model the output is attributed to.
func attributedKey(out predictor.Output) string {
	if k := outKey(out); k != "" {
		return k + "@" + out.Model
	}
	return ""
}

// arbSnapshot is every shard's serialized arbiter state, in shard order.
func arbSnapshot(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sh := range s.shards {
		if arb := sh.Arbiter(); arb != nil {
			if err := arb.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestReplayMatchesLiveRun(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	// The four dialects whose models pass the registry's vet gate.
	dialects := []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectCassandra, loggen.DialectHadoop,
	}
	// The swap comes right after a line that emits an output, so the output's
	// model attribution shows on which side of the epoch record the line was
	// replayed; that line is once the last of a full replay chunk (the epoch
	// record finds nothing pending) and once inside a chunk (it must be
	// submitted before the swap). Chunks are 256 lines, with the arbiter on
	// or off.
	//
	// Four more rows, on the first dialect with the arbiter off and on:
	//   - long: a journal of a few hundred chunks, so scans finish out of
	//     order whenever the scan stage has more than one goroutine running;
	//   - new-phrase: the journal begins under the model minus one chain and
	//     swaps to the full model, and the line right after the epoch record
	//     tokenizes only under the new model;
	//   - torn-tail: the journal ends in a torn record inside the last chunk;
	//   - shards2: two shards, each with its own journal and epoch record.
	//
	// Without the arbiter, the lines the model drops are journaled as discard
	// marks (the edge counts them on the ingest goroutine); with it, every
	// line is journaled whole.
	type replayCase struct {
		arbiter  bool
		boundary bool
		variant  string // "" for the dialect × arbiter × boundary grid
	}
	cases := []replayCase{{false, false, ""}, {false, true, ""}, {true, false, ""}, {true, true, ""}}
	for _, v := range []string{"long", "new-phrase", "torn-tail", "shards2"} {
		cases = append(cases, replayCase{false, false, v}, replayCase{true, false, v})
	}
	for di, d := range dialects {
		for _, tc := range cases {
			if tc.variant != "" && di > 0 {
				continue
			}
			d, seed, tc := d, int64(91+di), tc
			var arbCfg *arbiter.Config
			const chunk = 256
			if tc.arbiter {
				arbCfg = arbiterTestConfig()
			}
			name := fmt.Sprintf("%s/arbiter=%v/boundary=%v", d.Name, tc.arbiter, tc.boundary)
			if tc.variant != "" {
				name = fmt.Sprintf("%s/%s/arbiter=%v", d.Name, tc.variant, tc.arbiter)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				nodes, hours := 6, 3
				if tc.variant == "long" {
					nodes, hours = 24, 8
				}
				log, err := loggen.Generate(loggen.Config{
					Dialect: d, Seed: seed, Duration: time.Duration(hours) * time.Hour,
					Nodes: nodes, Failures: 3, BenignPerMinute: 4, AnomalyRate: 0.05,
				})
				if err != nil {
					t.Fatal(err)
				}
				var lines []string
				malformed := 0
				for i, line := range log.Lines() {
					switch {
					case i == 40:
						lines = append(lines, "\x00"+line)
						malformed++
					case i%97 == 50:
						lines = append(lines, "not a log line")
						malformed++
					}
					lines = append(lines, line)
				}
				model := registry.Model{Chains: d.Chains(), Templates: d.Inventory()}
				var dropped core.FailureChain // new-phrase: the chain the boot model lacks
				var probe string              // new-phrase: a line only the full model tokenizes
				if tc.variant == "new-phrase" {
					dropped, probe = chainOnlyPhrase(t, model)
					model.Chains = nil
					for _, fc := range d.Chains() {
						if fc.Name != dropped.Name {
							model.Chains = append(model.Chains, fc)
						}
					}
				}

				// Find the first output past the first chunk, then pad the front
				// of the stream with malformed lines until the line emitting it
				// ends a chunk (or does not).
				ref, err := predictor.New(model.Chains, model.Templates, model.Options)
				if err != nil {
					t.Fatal(err)
				}
				swapAt := 0
				for i, line := range lines {
					if out, err := ref.ProcessLine(line); err == nil && outKey(out) != "" && i >= chunk {
						swapAt = i + 1
						break
					}
				}
				if swapAt == 0 || len(lines) < swapAt+2*chunk {
					t.Fatalf("stream of %d lines has no output with chunks to spare on both sides (swap at %d)", len(lines), swapAt)
				}
				for (swapAt%chunk == 0) != tc.boundary {
					lines = append([]string{"padding, not a log line"}, lines...)
					malformed++
					swapAt++
				}
				if probe != "" {
					ts, node, _, err := lexgen.ParseLine(lines[swapAt-1])
					if err != nil {
						t.Fatal(err)
					}
					line := lexgen.FormatLine(ts, node, probe)
					if _, ok, _ := ref.Scanner().ScanLine(line); ok {
						t.Fatalf("the boot model already tokenizes %q", line)
					}
					lines = append(lines[:swapAt], append([]string{line}, lines[swapAt:]...)...)
				}
				if tc.variant == "torn-tail" {
					// The last chunk, which starts at the epoch record, ends
					// short of its bound, so the tear falls inside it.
					for (len(lines)-swapAt)%chunk == 0 {
						lines = append(lines, "trailing padding, not a log line")
						malformed++
					}
				}
				shards := 1
				if tc.variant == "shards2" {
					shards = 2
				}
				dir := t.TempDir()
				boot := func() *Server {
					mgr, err := predictor.NewManager(model.Chains, model.Templates, model.Options, 3)
					if err != nil {
						t.Fatal(err)
					}
					s := New(mgr, Config{
						TCPAddr: "off", Overflow: Block,
						DataDir: dir, Fsync: wal.SyncOff,
						Arbiter: arbCfg, Shards: shards,
					})
					if err := s.Start(); err != nil {
						t.Fatal(err)
					}
					return s
				}

				live := boot()
				live.testSkipFinalSnapshot = true // crash: the whole journal replays
				sub := live.Subscribe(1 << 17)
				feed := func(lines []string) {
					ingestAll(t, live, lines)
					if err := live.router.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				feed(lines[:swapAt])
				// Swap to the same chains over an inventory cut down to their own
				// phrases: parse state migrates (same automaton) and the outputs
				// stay, but every other line now counts as discarded instead of
				// as a token, so a line replayed on the wrong side of the epoch
				// record shows in the counters.
				inChain := map[core.PhraseID]bool{}
				for _, fc := range model.Chains {
					for _, p := range fc.Phrases {
						inChain[p] = true
					}
				}
				var lean []core.Template
				for _, tpl := range model.Templates {
					if inChain[tpl.ID] {
						lean = append(lean, tpl)
					}
				}
				upload := ModelUpload{Chains: model.Chains, Templates: lean, Activate: true}
				if probe != "" {
					upload = ModelUpload{Chains: d.Chains(), Templates: d.Inventory(), Activate: true}
				}
				code, body := postJSON(t, live.httpBase()+"/model", upload)
				if code != http.StatusCreated {
					t.Fatalf("POST /model = %d: %s", code, body)
				}
				var up ModelUploadResult
				if err := json.Unmarshal(body, &up); err != nil {
					t.Fatal(err)
				}
				if shards == 1 && up.Swap.WALEpochIndex != uint64(swapAt)+1 {
					t.Fatalf("epoch record at %d, want %d (right after line %d)", up.Swap.WALEpochIndex, swapAt+1, swapAt)
				}
				feed(lines[swapAt:])
				shutdownServer(t, live)
				want := pipeRun{perNode: map[string][]string{}, arb: arbSnapshot(t, live)}
				for out := range sub.Out() {
					if k := attributedKey(out); k != "" {
						want.keys = append(want.keys, k)
						want.perNode[outNode(out)] = append(want.perNode[outNode(out)], k)
					}
				}
				sort.Strings(want.keys)
				if len(want.keys) == 0 {
					t.Fatal("live run produced no outputs; the comparison would be vacuous")
				}
				liveSt := live.Status()
				wantStats := liveSt.Manager
				if tc.variant == "torn-tail" {
					tearJournalTail(t, filepath.Join(dir, "wal"), lines[len(lines)-1])
				}

				re := boot()
				defer shutdownServer(t, re)
				got := pipeRun{perNode: map[string][]string{}, arb: arbSnapshot(t, re)}
				for _, out := range re.Recovered() {
					if k := attributedKey(out); k != "" {
						got.keys = append(got.keys, k)
						got.perNode[outNode(out)] = append(got.perNode[outNode(out)], k)
					}
				}
				sort.Strings(got.keys)
				diffRuns(t, "replay", want, got)

				st := re.Status()
				if st.Manager.LinesScanned != wantStats.LinesScanned ||
					st.Manager.Discarded != wantStats.Discarded ||
					st.Manager.Tokens != wantStats.Tokens {
					t.Errorf("replayed scanner counters %+v, live run %+v", st.Manager, wantStats)
				}
				if wantStats.LinesScanned != len(lines)-malformed {
					t.Errorf("live run scanned %d lines, want %d", wantStats.LinesScanned, len(lines)-malformed)
				}
				rec := st.Recovery
				if rec == nil {
					t.Fatal("no recovery block after restart")
				}
				if rec.ReplayedRecords != uint64(len(lines)+shards) || rec.ReplayErrors != uint64(malformed) || rec.ReplayedSwaps != uint64(shards) {
					t.Errorf("recovery replayed %d records, %d errors, %d swaps; want %d lines + %d epochs, %d, %[5]d",
						rec.ReplayedRecords, rec.ReplayErrors, rec.ReplayedSwaps, len(lines), shards, malformed)
				}
				if liveSt.ParseErrors != int64(malformed) {
					t.Errorf("live run counted %d parse errors, want %d", liveSt.ParseErrors, malformed)
				}
				// Both halves of the stream were settled before the swap and
				// the crash, so every line the live run dropped was dropped at
				// the edge: a mark each without the arbiter, none with it.
				wantMarks := uint64(wantStats.Discarded)
				if tc.arbiter {
					wantMarks = 0
				}
				if rec.ReplayedMarks != wantMarks || wantStats.Discarded == 0 {
					t.Errorf("arbiter=%v: replayed %d discard marks, want %d (live run discarded %d)", tc.arbiter,
						rec.ReplayedMarks, wantMarks, wantStats.Discarded)
				}
				if rec.RecoveredOutputs != len(want.keys) {
					t.Errorf("recovery reports %d outputs, live run delivered %d", rec.RecoveredOutputs, len(want.keys))
				}
				if rec.ReplayBytes == 0 || rec.ReplaySeconds <= 0 || rec.SnapshotLoadSeconds+rec.ReplaySeconds > rec.DurationSeconds {
					t.Errorf("recovery timing split is inconsistent: %+v", rec)
				}
				if got := re.shards[0].Manager().FingerprintHex(); got != up.Model.Fingerprint {
					t.Errorf("replay ended on model %s, the journal's swap went to %s", got, up.Model.Fingerprint)
				}
			})
		}
	}
}

// chainOnlyPhrase picks a chain with a precursor phrase no other chain uses,
// and returns it with a message the full model's scanner tokenizes as that
// phrase.
func chainOnlyPhrase(t *testing.T, model registry.Model) (core.FailureChain, string) {
	t.Helper()
	full, err := predictor.New(model.Chains, model.Templates, model.Options)
	if err != nil {
		t.Fatal(err)
	}
	uses := map[core.PhraseID]int{}
	for _, fc := range model.Chains {
		seen := map[core.PhraseID]bool{}
		for _, p := range fc.Phrases {
			if !seen[p] {
				seen[p] = true
				uses[p]++
			}
		}
	}
	pattern := map[core.PhraseID]string{}
	for _, tpl := range model.Templates {
		pattern[tpl.ID] = tpl.Pattern
	}
	for _, fc := range model.Chains {
		for _, p := range fc.Phrases[:len(fc.Phrases)-1] {
			if uses[p] != 1 {
				continue
			}
			msg := strings.ReplaceAll(pattern[p], "*", "x")
			if id, ok := full.Scanner().Scan(msg); ok && id == p {
				return fc, msg
			}
		}
	}
	t.Fatal("no chain has a precursor phrase of its own")
	return core.FailureChain{}, ""
}

// tearJournalTail appends one more line record to the journal in dir and cuts
// it short, as a crash in the middle of the write leaves it.
func tearJournalTail(t *testing.T, dir, line string) {
	t.Helper()
	wl, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append([]byte(line)); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
}
