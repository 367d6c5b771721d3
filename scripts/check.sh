#!/usr/bin/env sh
# Full local check: build, the frozen bench/ module, gofmt, vet,
# repo-invariant lint, race-enabled tests, one-iteration smokes of the
# scanner, vet, model-compile, minimization and boot-replay benchmarks, and
# a short fuzz smoke over every fuzz target. This is what CI runs; run it
# before pushing.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzzing budget (default 10s; "0" skips fuzzing)

set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

echo "==> go build ./..."
go build ./...

# bench/ is a module of its own (the repository's benchmark, frozen between
# benchmark PRs) that compiles against internal/serve's exported API: a
# signature change that breaks it must fail here, not as a failed benchmark
# run after the fact.
echo "==> bench/ (frozen benchmark module): go vet . && go test ."
(cd bench && go vet . && go test .)

echo "==> gofmt -l ."
test -z "$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above need formatting"; exit 1; }

echo "==> go build ./cmd/aarohid (serving daemon)"
go build -o /dev/null ./cmd/aarohid

echo "==> go vet ./..."
go vet ./...

echo "==> aarohilint ./... (repo invariants: hotpath, lockblock, mustclose, durable, layering, unsafe)"
go run ./cmd/aarohilint ./...

echo "==> go test -race ./..."
go test -race ./...

# The committed scanner benchmark runs once so it keeps compiling and
# running; for numbers, run it with -count and compare parent and change.
echo "==> scanner benchmark smoke (BenchmarkScanDialect, -benchtime 1x)"
go test -run '^$' -bench BenchmarkScanDialect -benchtime 1x ./internal/lexgen

# Likewise the boot-time benchmarks: the whole vet gate (XC30, XE6, and XC30
# with 1 000 synthetic templates), the model compile that follows it, and
# the scanner minimization inside that compile.
echo "==> vet, compile and minimization benchmark smoke (BenchmarkVet, BenchmarkCompile, BenchmarkMinimizeTemplateSet, -benchtime 1x)"
go test -run '^$' -bench BenchmarkVet -benchtime 1x ./internal/vet
go test -run '^$' -bench BenchmarkCompile -benchtime 1x ./internal/predictor
go test -run '^$' -bench BenchmarkMinimizeTemplateSet -benchtime 1x ./internal/rex

# Likewise the boot-replay benchmark (plain journal with and without the
# arbiter, and the edge's marked journal).
echo "==> boot replay benchmark smoke (BenchmarkReplay, -benchtime 1x)"
go test -run '^$' -bench BenchmarkReplay -benchtime 1x ./internal/serve/shard

echo "==> serve integration (race): loopback daemon and cluster end-to-end"
go test -race -run 'TestServe|TestAarohid|TestCluster' ./internal/serve .

# POST /ingest and a closed line connection mean "queued", not "journaled": a
# test that snapshots or crashes on the strength of the former passes on an
# idle machine and fails one run in N. Repeating the persistence tests at one
# and two Ps makes that race fail here.
echo "==> serve persistence and crash tests under contention (-count=3 -cpu 1,2)"
go test -count=3 -cpu 1,2 -run 'TestServe.*(Crash|Snapshot|Recover)' ./internal/serve

# Live runs that a replay must reproduce, the batch and shard equivalence
# suites, the swap and shadow paths and the edge tests (a swap or a shadow
# between a chunk's scan and its counts, with discard marks journaled), once
# more under the race detector: they race the fan-out against the pump, and
# the edge against both. Affordable because a model now
# compiles once per version, not once per shard x worker.
# The journal-format tests replay the committed journals (with and without
# discard marks) through the concurrent replay stages; the journal reader's
# run tests hold runs of identical records to the one-record-at-a-time
# oracle, cut them at segment rolls, at the replay's start and at the last
# index a replay captured while AppendBatch keeps appending, and flip a bit
# inside a run; the one-pass tests hold OpenReplay to Open followed by
# ReplayRuns on torn, damaged and empty journals and every replay start, and
# check that a shard's boot reads its journal once and fails on a damaged
# later segment header without touching a file.
# The per-node order tests race the workers that feed the arbiter against
# the fan-out, a stalled Publish and each other. The count-only
# ProcessScanned test counts discards while every worker is blocked, then
# moves the count through a snapshot, a restore and a model migration; the
# line-parser and prediction-encoder tests hold the date-caching parser to
# ParseLine and the stream encoder to encoding/json, at 0 allocations.
# Every server runs a model registry whose boot version is the Manager's
# model: the boot tests check that the registry keeps that compiled form and
# stores what it was compiled from (TestModelSourceFingerprints,
# TestCompiledFormsBounded), boot a data dir written before that rule, and
# hold a boot model the vet gate rejects to a failed Start that leaves no
# goroutine or open file behind. Every in-process Start vets its model, so
# each of these suites pays one vet per boot. vet.Run compiles the inventory
# beside the grammar's conflicts: the halves tests hold it and Compile, on
# every dialect, to a step-by-step build (and Compile's errors to their
# order).
# The equivalence and order tests turn on recycle.TestHookPoison themselves:
# every recycled line store (framer buffer, pipeline slab, manager batch) is
# overwritten as it is released, so a line kept past its lifetime fails them
# here rather than one run in N in production.
ORDER_TESTS='TestArbiterRestartInOneBatch|TestArbiterChainLedgerUnderLag|TestManagerObserverOrder'
PARSE_TESTS='TestProcessScannedCountOnly|TestParseLineAllocFree|FuzzLineParser|TestAppendJSON|FuzzOutputJSON'
JOURNAL_TESTS='TestDecodeRecordBytes|TestReplayJournalFixtures|TestReplayCountsUnknownRecords|TestCountDiscardedNeedsRegistry|TestReplayRuns|TestRunCopy|TestSegmentReader|TestOpenReplay|TestOpenReadsJournalOnce|TestOpenDamagedSegmentHeader'
echo "==> serve replay, equivalence, edge, swap, shadow and boot tests, per-node order, journal-format and journal-run, count-only, parser, encoder and compile/vet halves tests (race, -count=5, poisoned line stores)"
BOOT_TESTS='TestBootVersionIsTheManagersModel|TestBootDataDirWrittenWithoutRegistry|TestStartRejectsModelVetRejects'
go test -race -count=5 -run "TestServeArbiterCrashRecovery|TestReplayMatchesLiveRun|TestBatchPipelineEquivalence|TestShardedPredictionEquivalence|TestEdge|Swap|Shadow|$BOOT_TESTS" ./internal/serve
HALVES_TESTS='TestCompileMatchesSequential|TestCompileErrorOrder|TestRunMatchesSequential'
go test -race -count=5 -run "$ORDER_TESTS|TestDriverKeysDoNotAliasChunk|$JOURNAL_TESTS|$PARSE_TESTS|TestModelSourceFingerprints|TestCompiledFormsBounded|$HALVES_TESTS" ./internal/serve/shard ./internal/predictor ./internal/lexgen ./internal/wal ./internal/registry ./internal/vet

# Boot replay sizes its scan stage from GOMAXPROCS: one P runs the scanners
# one after another, several finish chunks out of journal order. The default
# worker count is GOMAXPROCS too, so -cpu also varies how the workers that
# feed the arbiter interleave.
echo "==> replay equivalence and per-node order at -cpu 1,2,4"
go test -count=3 -cpu 1,2,4 -run 'TestReplayMatchesLiveRun' ./internal/serve
go test -count=3 -cpu 1,2,4 -run "TestReplayAppliesChunksInJournalOrder|$ORDER_TESTS" ./internal/serve/shard ./internal/predictor

if [ "$FUZZTIME" != "0" ]; then
    # Go only allows one -fuzz target per invocation; run each explicitly.
    # One pkg:target entry per line.
    FUZZ_TARGETS="
        ./internal/rex:FuzzCompileAndMatch
        ./internal/vet:FuzzOverlapOnePass
        ./internal/lexgen:FuzzParseLine
        ./internal/lexgen:FuzzLineParser
        ./internal/lexgen:FuzzScan
        ./internal/baselines:FuzzWildcardMatch
        ./internal/predictor:FuzzOutputJSON
        ./internal/wal:FuzzWALDecode
        ./internal/wal:FuzzSegmentReader
        ./internal/wal:FuzzAppendBatchDecode
        ./internal/wal:FuzzOpenReplay
        ./internal/wal:FuzzSnapshotDecode
        ./internal/registry:FuzzManifestDecode
        ./internal/serve:FuzzModelUploadDecode
        ./internal/serve/transport:FuzzReadLines
        ./internal/arbiter:FuzzStateDecode
        ./internal/gossip:FuzzGossipDecode
        ./internal/gossip/ship:FuzzShipHandshake
        ./internal/gossip/ship:FuzzShipFrameDecode
    "
    # -fuzzminimizetime 0: Go otherwise spends up to a minute minimizing each
    # new interesting input, and a multi-argument target (FuzzAppendBatchDecode,
    # FuzzOpenReplay) finds one at once, so a short window would end before it
    # ran much beyond its seeds. A failing input is still reported, unminimized.
    echo "==> fuzz smoke (${FUZZTIME} per target)"
    for entry in $FUZZ_TARGETS; do
        pkg="${entry%%:*}"
        target="${entry##*:}"
        go test -run='^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" -fuzzminimizetime=0 "$pkg"
    done
fi

echo "==> all checks passed"
