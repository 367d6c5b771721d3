package predictor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
)

// encodeJSON is what AppendJSON must match: encoding/json's Encoder, with
// its defaults, on the same output.
func encodeJSON(out Output) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(out)
	return b.Bytes(), err
}

// TestAppendJSONGolden: every kind of output the prediction stream carries —
// a prediction, a failure, both, neither, with and without a model — encodes
// to json.Encoder's bytes, with strings that need escaping and times in UTC
// and in a zone, and the whole set matches testdata/outputs.golden. Run with
// UPDATE_GOLDEN=1 to rewrite the golden after a deliberate format change.
func TestAppendJSONGolden(t *testing.T) {
	at := time.Date(2015, 3, 14, 4, 58, 57, 640e6, time.UTC)
	pred := &parser.Prediction{Node: "c0-0c2s0n2", ChainIndex: 3, ChainName: "lustre-io", FirstAt: at.Add(-2 * time.Minute), MatchedAt: at, Length: 5}
	odd := &parser.Prediction{Node: "n<1>&\"2\"\\", ChainIndex: -1, ChainName: "tab\there\nnl\x00\x1f\x7f\b\f\r é \u2028\u2029 \xff\xfe end",
		FirstAt: time.Date(2015, 3, 14, 10, 28, 57, 123456789, time.FixedZone("", 5*3600+30*60)), MatchedAt: time.Time{}, Length: 0}
	fail := &ObservedFailure{Node: "c0-0c2s0n2", Time: at.Add(3 * time.Minute), Phrase: 127}
	cases := []Output{
		{Prediction: pred, Model: "0123456789abcdef"},
		{Prediction: pred},
		{Failure: fail, Model: "0123456789abcdef"},
		{Failure: &ObservedFailure{Node: "\u00e9\xc3", Time: time.Unix(0, 1).In(time.FixedZone("", -8*3600)), Phrase: core.NoPhrase}},
		{Prediction: odd, Failure: fail, Model: "m\"x"},
		{},
	}
	var all, buf []byte
	for i, out := range cases {
		want, err := encodeJSON(out)
		if err != nil {
			t.Fatalf("case %d: encoding/json: %v", i, err)
		}
		var ok bool
		if buf, ok = out.AppendJSON(buf[:0]); !ok || !bytes.Equal(buf, want) {
			t.Fatalf("case %d: AppendJSON = %q, %v\nencoding/json  %q", i, buf, ok, want)
		}
		all = append(all, buf...)
	}
	golden := filepath.Join("testdata", "outputs.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(all, want) {
		t.Fatalf("outputs differ from %s:\n%s\nwant:\n%s", golden, all, want)
	}
}

// TestAppendJSONRefusesWhatJSONRefuses: a time encoding/json will not encode
// makes AppendJSON report false and leave dst as it was.
func TestAppendJSONRefusesWhatJSONRefuses(t *testing.T) {
	for _, ts := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2015, 1, 1, 0, 0, 0, 0, time.FixedZone("", -25*3600)),
	} {
		out := Output{Failure: &ObservedFailure{Node: "n", Time: ts}}
		if _, err := encodeJSON(out); err == nil {
			t.Fatalf("encoding/json encodes %v; the case tests nothing", ts)
		}
		dst := []byte("kept")
		if got, ok := out.AppendJSON(dst); ok || string(got) != "kept" {
			t.Fatalf("time %v: AppendJSON = %q, %v; want the input back and false", ts, got, ok)
		}
	}
}

// TestAppendJSONAllocs pins AppendJSON at zero allocations into a reused
// buffer, the way the prediction stream calls it.
func TestAppendJSONAllocs(t *testing.T) {
	at := time.Date(2015, 3, 14, 4, 58, 57, 640e6, time.UTC)
	out := Output{
		Prediction: &parser.Prediction{Node: "c0-0c2s0n2", ChainName: "lustre-io", FirstAt: at, MatchedAt: at, Length: 5},
		Failure:    &ObservedFailure{Node: "c0-0c2s0n2", Time: at, Phrase: 12},
		Model:      "0123456789abcdef",
	}
	buf, _ := out.AppendJSON(nil)
	if allocs := testing.AllocsPerRun(200, func() { buf, _ = out.AppendJSON(buf[:0]) }); allocs > 0 {
		t.Fatalf("AppendJSON allocates %.1f objects per output, want 0", allocs)
	}
}

// FuzzOutputJSON: for any node and chain strings (quotes, control bytes,
// invalid UTF-8) and any time, AppendJSON writes encoding/json's bytes, or
// reports false exactly when encoding/json refuses the output.
func FuzzOutputJSON(f *testing.F) {
	f.Add("c0-0c2s0n2", "lustre-io", int64(1426309137), int64(640e6), 0, 3, 127)
	f.Add("n\"\\<>&\x00\x1f\x7f", "\xff\u2028\u2029\xe2\x80", int64(-62135596800), int64(0), 19800, -1, -1)
	f.Add("", "\t\n\r\b\f", int64(253402300800), int64(1), -86400, 0, 0)
	f.Fuzz(func(t *testing.T, node, chain string, sec, nsec int64, offset, index, phrase int) {
		ts := time.Unix(sec, nsec).In(time.FixedZone("", offset))
		for _, out := range []Output{
			{Prediction: &parser.Prediction{Node: node, ChainIndex: index, ChainName: chain, FirstAt: ts, MatchedAt: ts.Add(time.Minute), Length: phrase}, Model: chain},
			{Failure: &ObservedFailure{Node: chain, Time: ts, Phrase: core.PhraseID(phrase)}, Model: node},
		} {
			want, err := encodeJSON(out)
			got, ok := out.AppendJSON([]byte("x"))
			if ok != (err == nil) {
				t.Fatalf("%+v: AppendJSON ok %v, encoding/json error %v", out, ok, err)
			}
			if ok && !bytes.Equal(got[1:], want) {
				t.Fatalf("AppendJSON = %q\nencoding/json  %q", got[1:], want)
			}
			if !ok && string(got) != "x" {
				t.Fatalf("refused output changed dst to %q", got)
			}
		}
	})
}
