// Package aarohi is an online node-failure predictor for large-scale
// computing systems, reproducing "Aarohi: Making Real-Time Node Failure
// Prediction Feasible" (Das, Mueller, Rountree — IPDPS 2020).
//
// Aarohi turns failure chains (FCs) — sequences of log-phrase templates that
// an offline Phase-1 trainer has learned to precede node failures — into a
// generated scanner and LALR(1) parser. The scanner tokenizes each incoming
// log message in one pass over a combined DFA, discarding everything not
// FC-related; the parser advances one per-node parse per token with ΔT
// timeout semantics and flags an impending failure the moment a chain
// completes, minutes before the node stops responding.
//
// # Quick start
//
//	chains, _ := aarohi.ReadChains(chainsFile)       // Phase-1 output
//	inventory, _ := aarohi.ReadTemplates(tplFile)    // phrase templates
//	p, _ := aarohi.New(chains, inventory, aarohi.Options{})
//	for line := range logLines {
//	    out, _ := p.ProcessLine(line)
//	    if out.Prediction != nil {
//	        migrate(out.Prediction.Node) // >2 min of lead time, typically
//	    }
//	}
//
// Phase 1 itself can be run with Train, which mines failure chains from a
// labeled historical log.
package aarohi

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/parser"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/trainer"
	"repro/internal/vet"
	"repro/internal/wal"
)

// Core data-model types.
type (
	// PhraseID identifies a distinct phrase template.
	PhraseID = core.PhraseID
	// Class labels a phrase: Benign, Unknown, Erroneous or Failed.
	Class = core.Class
	// Template is a phrase template with '*' wildcards.
	Template = core.Template
	// Token is one scanned log event: phrase, arrival time, node.
	Token = core.Token
	// FailureChain is a learned sequence of phrases ending in a node
	// failure.
	FailureChain = core.FailureChain
	// RuleSet is the compiled output of Algorithm 1 (token list, factored
	// rules, LALR tables).
	RuleSet = core.RuleSet
	// TranslateOptions configure chain-to-rule translation.
	TranslateOptions = core.Options
)

// Phrase classes.
const (
	Benign    = core.Benign
	Unknown   = core.Unknown
	Erroneous = core.Erroneous
	Failed    = core.Failed
)

// DefaultTimeout is the default ΔT threshold between adjacent chain phrases
// (4 minutes, per the paper's Fig. 5 analysis).
const DefaultTimeout = core.DefaultTimeout

// Predictor types.
type (
	// Predictor is the cluster-wide online predictor: one generated scanner
	// plus one parse driver per node.
	Predictor = predictor.Predictor
	// Options configure predictor construction.
	Options = predictor.Options
	// Output is the result of processing one event.
	Output = predictor.Output
	// Prediction is one flagged impending node failure.
	Prediction = parser.Prediction
	// ObservedFailure reports the arrival of a terminal failed message.
	ObservedFailure = predictor.ObservedFailure
	// Stats aggregates scanner and parser activity counters.
	Stats = predictor.Stats
)

// Streaming-service types (the cmd/aarohid deployment shape).
type (
	// Manager is the sharded cluster-wide predictor: per-node drivers
	// distributed across worker goroutines, results on a channel.
	Manager = predictor.Manager
	// ServeConfig parameterizes the streaming ingestion server.
	ServeConfig = serve.Config
	// Server exposes a Manager as a network service: TCP line protocol,
	// HTTP ingest/predictions/health endpoints, graceful drain.
	Server = serve.Server
	// ServeStatus is the /statusz document: server counters plus the live
	// Manager stats.
	ServeStatus = serve.Status
	// ServeClient talks to a Server's HTTP API.
	ServeClient = serve.Client
	// Subscription is one attached prediction consumer.
	Subscription = serve.Subscription
	// OverflowPolicy says what a full ingest queue does.
	OverflowPolicy = serve.OverflowPolicy
)

// Ingest-queue overflow policies.
const (
	// OverflowBlock applies backpressure to producers; nothing accepted is
	// ever dropped.
	OverflowBlock = serve.Block
	// OverflowShed drops on a full queue and counts the loss.
	OverflowShed = serve.Shed
)

// Durability types (the write-ahead journal + snapshot layer a Server runs
// when ServeConfig.DataDir is set).
type (
	// SyncPolicy says when the write-ahead journal calls fsync.
	SyncPolicy = wal.SyncPolicy
	// WALStatus is the /statusz "wal" block: journal and snapshot counters.
	WALStatus = serve.WALStatus
	// RecoveryStatus is the /statusz "recovery" block describing the
	// boot-time snapshot restore + journal replay.
	RecoveryStatus = serve.RecoveryStatus
)

// Model-lifecycle types (the registry every Server runs, its boot version
// the model of the Manager it serves: versioned vet-gated model store,
// zero-loss hot-swap, shadow evaluation, rollback).
type (
	// Model is a complete predictor model: chains + template inventory +
	// construction options, the unit of registry versioning.
	Model = registry.Model
	// ModelEntry describes one admitted model version.
	ModelEntry = registry.Entry
	// ModelRegistry is the versioned, content-addressed model store.
	ModelRegistry = registry.Registry
	// SwapReport describes one completed model hot-swap.
	SwapReport = serve.SwapReport
	// ModelStatus is the /statusz "model" block.
	ModelStatus = serve.ModelStatus
	// ShadowStatus is the /statusz "shadow" block: the candidate model
	// running in parallel and its agreement with the primary.
	ShadowStatus = serve.ShadowStatus
	// ModelUpload is the POST /model document.
	ModelUpload = serve.ModelUpload
)

// ErrModelRejected is returned (wrapped) when a model fails the vet gate at
// registry admission; the accompanying VetReport carries the findings.
var ErrModelRejected = registry.ErrRejected

// Journal fsync policies.
const (
	// SyncBatch groups fsyncs on a short ticker: bounded loss window,
	// near-SyncOff throughput. The default.
	SyncBatch = wal.SyncBatch
	// SyncAlways fsyncs before acknowledging every append: no accepted line
	// is ever lost.
	SyncAlways = wal.SyncAlways
	// SyncOff leaves flushing to the OS page cache.
	SyncOff = wal.SyncOff
)

// ParseSyncPolicy parses "always", "batch" or "off" (the -fsync flag values).
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ErrManagerClosed is returned by Manager.Process* after Close.
var ErrManagerClosed = predictor.ErrClosed

// Phase-1 types.
type (
	// TrainConfig parameterizes failure-chain mining.
	TrainConfig = trainer.Config
	// TrainResult is the Phase-1 output: mined chains plus diagnostics.
	TrainResult = trainer.Result
)

// Scanner is the generated tokenizer over a template inventory.
type Scanner = lexgen.Scanner

// Static-analysis (vet) types.
type (
	// VetConfig tunes the static-analysis suite.
	VetConfig = vet.Config
	// VetReport is the outcome of a vet run, findings ordered most severe
	// first.
	VetReport = vet.Report
	// VetFinding is one diagnostic produced by a vet check.
	VetFinding = vet.Finding
)

// Vet severities.
const (
	VetInfo    = vet.Info
	VetWarning = vet.Warning
	VetError   = vet.Error
)

// Vet statically analyzes a model — failure chains plus an optional template
// inventory — for defects that make the online predictor misbehave:
// duplicate or prefix-shadowed chains, dead templates, overlapping scanner
// patterns, unsatisfiable ΔT budgets, and grammar conflicts. The aarohivet
// command wraps this; VetHook adapts it to TranslateOptions.Vet so flawed
// models fail at compile time.
func Vet(chains []FailureChain, inventory []Template, cfg VetConfig) (*VetReport, error) {
	return vet.Run(vet.Model{Chains: chains, Templates: inventory}, cfg)
}

// VetHook returns a TranslateOptions.Vet hook that rejects rule sets with
// error-severity vet findings.
func VetHook(inventory []Template, cfg VetConfig) func(*RuleSet) error {
	return vet.CompileHook(inventory, cfg)
}

// New builds an online predictor from Phase-1 failure chains and the
// system's template inventory. Chains ending in a Failed-class phrase
// predict at their last precursor; the terminal phrase is still recognized
// and reported as an ObservedFailure.
func New(chains []FailureChain, inventory []Template, opts Options) (*Predictor, error) {
	return predictor.New(chains, inventory, opts)
}

// NewManager builds the sharded concurrent predictor (0 workers →
// GOMAXPROCS). Per-node event order is preserved across workers.
func NewManager(chains []FailureChain, inventory []Template, opts Options, workers int) (*Manager, error) {
	return predictor.NewManager(chains, inventory, opts, workers)
}

// NewServer wraps a Manager in the streaming ingestion service: a TCP
// line-protocol listener and an HTTP API (POST /ingest, GET /predictions,
// /healthz, /readyz, /statusz) over a bounded ingest queue with an explicit
// overflow policy, and a model registry that admits m's model as its boot
// version (vet-gated: Start fails with ErrModelRejected for a model with
// error findings) behind the admin API (POST /model, GET /models,
// /model/activate, /model/rollback, /model/shadow). Start it with Start or
// Run; Shutdown drains gracefully. cmd/aarohid is the stand-alone daemon
// built on this.
func NewServer(m *Manager, cfg ServeConfig) *Server {
	return serve.New(m, cfg)
}

// Train mines failure chains from a time-sorted, labeled token stream — the
// Phase-1 step. Any alternative trainer works as long as it produces
// coherent FailureChains.
func Train(tokens []Token, inventory []Template, cfg TrainConfig) (*TrainResult, error) {
	return trainer.Train(tokens, inventory, cfg)
}

// TranslateFCs runs Algorithm 1 alone: failure chains → token list + LALR(1)
// rule set. New calls this internally; it is exposed for inspection and for
// building custom drivers.
func TranslateFCs(chains []FailureChain, opts TranslateOptions) (*RuleSet, error) {
	return core.TranslateFCs(chains, opts)
}

// NewScanner compiles a template inventory into a standalone scanner.
func NewScanner(templates []Template) (*Scanner, error) {
	return lexgen.NewScanner(templates)
}

// ReadChains deserializes failure chains from JSON.
func ReadChains(r io.Reader) ([]FailureChain, error) { return core.ReadChains(r) }

// WriteChains serializes failure chains as JSON.
func WriteChains(w io.Writer, chains []FailureChain) error { return core.WriteChains(w, chains) }

// ReadTemplates deserializes a template inventory from JSON.
func ReadTemplates(r io.Reader) ([]Template, error) { return core.ReadTemplates(r) }

// WriteTemplates serializes a template inventory as JSON.
func WriteTemplates(w io.Writer, ts []Template) error { return core.WriteTemplates(w, ts) }

// ParseLine splits a raw log line ("RFC3339-ms node message...") into its
// parts.
func ParseLine(line string) (ts time.Time, node, msg string, err error) {
	return lexgen.ParseLine(line)
}

// FormatLine renders a log line in the canonical layout.
func FormatLine(ts time.Time, node, msg string) string { return lexgen.FormatLine(ts, node, msg) }
