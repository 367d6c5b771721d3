package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// TestParseOptions drives the flag surface end to end: every validation
// branch returns an error naming the offending flag, and valid inputs land in
// typed fields with the documented defaults.
func TestParseOptions(t *testing.T) {
	base := []string{"-chains", "c.json", "-templates", "t.json"}
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the returned error; "" = must succeed
		check   func(t *testing.T, o *options)
	}{
		{
			name: "defaults",
			args: base,
			check: func(t *testing.T, o *options) {
				if o.ChainsPath != "c.json" || o.TemplatesPath != "t.json" {
					t.Errorf("paths = %q, %q", o.ChainsPath, o.TemplatesPath)
				}
				if o.TCPAddr != ":7743" || o.HTTPAddr != ":7780" {
					t.Errorf("addrs = %q, %q", o.TCPAddr, o.HTTPAddr)
				}
				if o.QueueSize != 4096 || o.BatchMax != 256 {
					t.Errorf("queue/batch = %d, %d", o.QueueSize, o.BatchMax)
				}
				if o.Overflow != serve.Block {
					t.Errorf("overflow = %v, want block", o.Overflow)
				}
				if o.Fsync != wal.SyncBatch {
					t.Errorf("fsync = %v, want batch", o.Fsync)
				}
				if o.Shards != 1 {
					t.Errorf("shards = %d, want 1", o.Shards)
				}
				if o.ReadTimeout != 5*time.Minute || o.Grace != 30*time.Second {
					t.Errorf("read-timeout/grace = %s, %s", o.ReadTimeout, o.Grace)
				}
				if o.Arbiter != nil {
					t.Errorf("arbiter enabled by default")
				}
			},
		},
		{
			name:    "missing chains and templates",
			args:    nil,
			wantErr: "-chains and -templates are required",
		},
		{
			name:    "missing templates",
			args:    []string{"-chains", "c.json"},
			wantErr: "-chains and -templates are required",
		},
		{
			name: "overflow shed",
			args: append(base, "-overflow", "shed"),
			check: func(t *testing.T, o *options) {
				if o.Overflow != serve.Shed {
					t.Errorf("overflow = %v, want shed", o.Overflow)
				}
			},
		},
		{
			name:    "overflow bogus",
			args:    append(base, "-overflow", "drop"),
			wantErr: `-overflow must be block or shed, not "drop"`,
		},
		{
			name: "fsync always",
			args: append(base, "-fsync", "always"),
			check: func(t *testing.T, o *options) {
				if o.Fsync != wal.SyncAlways {
					t.Errorf("fsync = %v, want always", o.Fsync)
				}
			},
		},
		{
			name:    "fsync bogus",
			args:    append(base, "-fsync", "sometimes"),
			wantErr: `-fsync must be always, batch or off, not "sometimes"`,
		},
		{
			name:    "queue zero",
			args:    append(base, "-queue", "0"),
			wantErr: "-queue must be >= 1, not 0",
		},
		{
			name:    "ingest-batch zero",
			args:    append(base, "-ingest-batch", "0"),
			wantErr: "-ingest-batch must be >= 1, not 0",
		},
		{
			name: "shards four",
			args: append(base, "-shards", "4"),
			check: func(t *testing.T, o *options) {
				if o.Shards != 4 {
					t.Errorf("shards = %d, want 4", o.Shards)
				}
			},
		},
		{
			name:    "shards zero",
			args:    append(base, "-shards", "0"),
			wantErr: "-shards must be >= 1, not 0",
		},
		{
			name:    "negative watch",
			args:    append(base, "-watch", "-5s"),
			wantErr: "-watch must be a non-negative duration",
		},
		{
			name: "arbiter with tiers",
			args: append(base, "-arbiter", "-horizon", "5m", "-alert-threshold", "0.7",
				"-criticality", "nid001=1,nid002=2", "-tier-weights", "4,1"),
			check: func(t *testing.T, o *options) {
				if o.Arbiter == nil {
					t.Fatal("arbiter config missing")
				}
				if o.Arbiter.Horizon != 5*time.Minute || o.Arbiter.AlertThreshold != 0.7 {
					t.Errorf("arbiter = %+v", o.Arbiter)
				}
				if len(o.Arbiter.Criticality) != 2 || len(o.Arbiter.TierWeights) != 2 {
					t.Errorf("criticality/weights = %v, %v", o.Arbiter.Criticality, o.Arbiter.TierWeights)
				}
			},
		},
		{
			name:    "criticality without arbiter",
			args:    append(base, "-criticality", "nid001=1"),
			wantErr: "-criticality/-tier-weights require -arbiter",
		},
		{
			name: "cluster mode",
			args: append(base, "-gossip-addr", ":7799", "-join", "host1:7799, host2:7799,",
				"-peer-name", "smw-a", "-probe-interval", "100ms"),
			check: func(t *testing.T, o *options) {
				c := o.Cluster
				if c == nil {
					t.Fatal("cluster config missing")
				}
				if c.Name != "smw-a" || c.GossipAddr != ":7799" {
					t.Errorf("cluster = %+v", c)
				}
				if len(c.Join) != 2 || c.Join[0] != "host1:7799" || c.Join[1] != "host2:7799" {
					t.Errorf("join = %v (empty entries and spaces must be dropped)", c.Join)
				}
				if c.ProbeInterval != 100*time.Millisecond {
					t.Errorf("probe interval = %s", c.ProbeInterval)
				}
			},
		},
		{
			name: "cluster peer name defaults to hostname",
			args: append(base, "-gossip-addr", ":7799"),
			check: func(t *testing.T, o *options) {
				if o.Cluster == nil || o.Cluster.Name == "" {
					t.Fatalf("cluster = %+v, want hostname peer name", o.Cluster)
				}
			},
		},
		{
			name:    "join without gossip-addr",
			args:    append(base, "-join", "host1:7799"),
			wantErr: "-join requires -gossip-addr",
		},
		{
			name:    "suspect-timeout without gossip-addr",
			args:    append(base, "-suspect-timeout", "2s"),
			wantErr: "-probe-interval/-suspect-timeout require -gossip-addr",
		},
		{
			name:    "unknown flag",
			args:    append(base, "-no-such-flag"),
			wantErr: "flag provided but not defined",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseOptions(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseOptions(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseOptions(%v): %v", tc.args, err)
			}
			if tc.check != nil {
				tc.check(t, o)
			}
		})
	}
}

// TestParseOptionsHelp: -h must surface flag.ErrHelp so main exits 0, not 2.
func TestParseOptionsHelp(t *testing.T) {
	_, err := parseOptions([]string{"-h"}, io.Discard)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
}

// TestServeConfigMapping: the options->serve.Config mapping carries the shard
// count and overflow policy through and survives serve's own validation.
func TestServeConfigMapping(t *testing.T) {
	o, err := parseOptions([]string{
		"-chains", "c.json", "-templates", "t.json",
		"-shards", "4", "-overflow", "shed", "-queue", "128",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.serveConfig()
	if cfg.Shards != 4 || cfg.Overflow != serve.Shed || cfg.QueueSize != 128 {
		t.Errorf("cfg = shards=%d overflow=%v queue=%d", cfg.Shards, cfg.Overflow, cfg.QueueSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected -shards 4: %v", err)
	}
}
