// Command aarohid runs the online node-failure predictor as a long-lived
// streaming daemon — the paper's Fig. 16 deployment: a service on the SMW
// consuming the live aggregate HSS log stream.
//
// Usage:
//
//	aarohid -chains chains.json -templates templates.json \
//	        [-tcp :7743] [-http :7780] [-queue 4096] [-overflow block|shed] \
//	        [-shards 4] \
//	        [-gossip-addr :7799 -peer-name smw-a -join host:7799]
//
// Cluster mode (-gossip-addr) joins the daemon to an aarohid peer group:
// SWIM-style gossip membership tracks the fleet, every log line is placed on
// exactly one owning peer (lines landing elsewhere make one forwarding hop),
// each daemon WAL-ships its shards to its ring successor, and a confirmed
// peer death promotes the successor to owner of the dead peer's node IDs with
// its in-flight partial matches restored from the shipped journal. GET /peers
// serves the membership view.
//
// Log lines arrive over the TCP line protocol (newline-framed, same format
// as cmd/aarohi stdin — `loggen -stream` is a ready-made load source) or as
// NDJSON batches on POST /ingest. Predictions stream to any number of
// subscribers on GET /predictions; /healthz, /readyz and /statusz expose
// liveness, drain state and live counters. SIGINT/SIGTERM triggers a
// graceful drain: accepted lines are flushed through the predictor before
// the final stats report prints.
//
// The model is hot-swappable while the daemon runs: the admin API
// (POST /model, /model/activate, /model/rollback, /model/shadow) manages
// versioned models through the registry, SIGHUP re-reads -chains and
// -templates and activates the result, and -watch polls those files for
// changes and does the same automatically. Swaps lose no accepted lines —
// ingest pauses at a line boundary while per-node parse state migrates.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	aarohi "repro"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/serve"
)

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	chains := readChains(o.ChainsPath)
	inventory := readTemplates(o.TemplatesPath)
	opts := o.predictorOptions()

	mgr, err := predictor.NewManager(chains, inventory, opts, o.Workers)
	if err != nil {
		fatalf("%v", err)
	}

	srv := serve.New(mgr, o.serveConfig())
	// Catch shutdown signals before the listeners open: once /readyz answers,
	// a SIGTERM must always drain gracefully, never hit the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGHUP too: its default action kills the process, and a reload asked
	// for while the daemon boots is served once the reload loop runs.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	if err := srv.Start(); err != nil {
		fatalf("%v", err)
	}
	if st := srv.Status(); st.Recovery != nil && st.Recovery.Performed {
		log.Printf("aarohid: recovered snapshot@%d + %d replayed lines (%d tokenized, %d discard marks, %d outputs) in %.3fs (snapshot load %.3fs, replay of %d bytes %.3fs)",
			st.Recovery.SnapshotIndex, st.Recovery.ReplayedRecords, st.Recovery.ReplayTokens,
			st.Recovery.ReplayedMarks, st.Recovery.RecoveredOutputs, st.Recovery.DurationSeconds,
			st.Recovery.SnapshotLoadSeconds, st.Recovery.ReplayBytes, st.Recovery.ReplaySeconds)
	}
	if a := srv.TCPAddr(); a != nil {
		log.Printf("aarohid: tcp line protocol on %s", a)
	}
	if a := srv.HTTPAddr(); a != nil {
		log.Printf("aarohid: http api on %s (/ingest /predictions /healthz /readyz /statusz)", a)
	}
	log.Printf("aarohid: %d chains, shards=%d queue=%d overflow=%s batch=%d",
		len(chains), o.Shards, o.QueueSize, o.Overflow, o.BatchMax)
	if o.Arbiter != nil {
		log.Printf("aarohid: arbiter on: horizon=%s alert-threshold=%g tiers=%d",
			o.Arbiter.Horizon, o.Arbiter.AlertThreshold, len(o.Arbiter.Criticality))
	}
	if o.Cluster != nil {
		log.Printf("aarohid: cluster peer %q gossip on %s join=%s (/peers lists membership)",
			o.Cluster.Name, srv.GossipAddr(), strings.Join(o.Cluster.Join, ","))
	}
	if o.DataDir != "" {
		log.Printf("aarohid: durability on: data-dir=%s fsync=%s snapshot-interval=%s", o.DataDir, o.Fsync, o.SnapshotInterval)
	}
	ms := srv.Status().Model
	vetted := "admitted before this boot"
	if ms.VetSeconds > 0 {
		vetted = fmt.Sprintf("%.3fs", ms.VetSeconds)
	}
	log.Printf("aarohid: model registry active=%s (%d versions; vet %s, compile %.3fs); POST /model, SIGHUP and -watch hot-swap",
		ms.Active, ms.Versions, vetted, ms.CompileSeconds)

	// Hot-reload sources: SIGHUP re-reads -chains/-templates on demand; -watch
	// polls their mtimes. Both funnel into reloadModel, which vets, admits and
	// activates the files' current contents with zero accepted-line loss.
	stopReload := make(chan struct{})
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		var last [2]fileStamp
		if o.Watch > 0 {
			last[0], last[1] = stampFile(o.ChainsPath), stampFile(o.TemplatesPath)
		}
		ticker := time.NewTicker(watchInterval(o.Watch))
		defer ticker.Stop()
		for {
			select {
			case <-stopReload:
				return
			case <-hup:
				reloadModel(srv, o.ChainsPath, o.TemplatesPath, opts, "sighup")
				if o.Watch > 0 {
					last[0], last[1] = stampFile(o.ChainsPath), stampFile(o.TemplatesPath)
				}
			case <-ticker.C:
				if o.Watch == 0 {
					continue
				}
				cur := [2]fileStamp{stampFile(o.ChainsPath), stampFile(o.TemplatesPath)}
				if cur != last && cur[0].ok && cur[1].ok {
					last = cur
					reloadModel(srv, o.ChainsPath, o.TemplatesPath, opts, "watch")
				}
			}
		}
	}()

	<-ctx.Done()
	stop()
	signal.Stop(hup)
	close(stopReload)
	<-reloadDone
	log.Printf("aarohid: draining (budget %s)...", o.Grace)
	sctx, cancel := context.WithTimeout(context.Background(), o.Grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("aarohid: shutdown: %v", err)
	}

	st := srv.Status()
	fmt.Println("--- final stats ---")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		fatalf("%v", err)
	}
}

// watchInterval sizes the poll ticker; a disabled watcher still needs a live
// (but inert) ticker so the reload loop's select stays simple.
func watchInterval(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return time.Hour
}

// fileStamp is the change-detection identity of a watched file.
type fileStamp struct {
	ok      bool
	size    int64
	modTime time.Time
}

func stampFile(path string) fileStamp {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{ok: true, size: fi.Size(), modTime: fi.ModTime()}
}

// reloadModel re-reads the chains and templates files and admits + activates
// the result as the live model. Errors are logged, never fatal: a reload that
// fails to parse, is rejected by the vet gate, or does not compile leaves the
// running model untouched.
func reloadModel(srv *serve.Server, chainsPath, tplPath string, opts aarohi.Options, trigger string) {
	chains, err := loadChains(chainsPath)
	if err != nil {
		log.Printf("aarohid: %s reload: %v", trigger, err)
		return
	}
	inventory, err := loadTemplates(tplPath)
	if err != nil {
		log.Printf("aarohid: %s reload: %v", trigger, err)
		return
	}
	m := registry.Model{Chains: chains, Templates: inventory, Options: opts}
	entry, rep, swap, err := srv.LoadModel(m, trigger, true)
	if err != nil {
		if errors.Is(err, registry.ErrRejected) && rep != nil {
			for _, f := range rep.Findings {
				log.Printf("aarohid: %s reload: vet %s: [%s] %s: %s", trigger, f.Severity, f.Check, f.Subject, f.Message)
			}
		}
		log.Printf("aarohid: %s reload failed, keeping current model: %v", trigger, err)
		return
	}
	if swap == nil || swap.From == swap.To {
		log.Printf("aarohid: %s reload: model %s already active", trigger, entry.Fingerprint)
		return
	}
	log.Printf("aarohid: %s reload: swapped %s -> %s (state carried=%v migrated=%d reset=%d pause=%.3fs)",
		trigger, swap.From, swap.To, swap.StateCarried, swap.MigratedNodes, swap.ResetNodes, swap.PauseSeconds)
}

func readChains(path string) []aarohi.FailureChain {
	chains, err := loadChains(path)
	if err != nil {
		fatalf("%v", err)
	}
	return chains
}

func readTemplates(path string) []aarohi.Template {
	ts, err := loadTemplates(path)
	if err != nil {
		fatalf("%v", err)
	}
	return ts
}

func loadChains(path string) ([]aarohi.FailureChain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aarohi.ReadChains(f)
}

func loadTemplates(path string) ([]aarohi.Template, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aarohi.ReadTemplates(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aarohid: "+format+"\n", args...)
	os.Exit(1)
}
