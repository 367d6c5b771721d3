package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	aarohi "repro"
	"repro/internal/arbiter"
	"repro/internal/serve"
	"repro/internal/wal"
)

// options is every aarohid setting, parsed and validated in one place.
// parseOptions is the only reader of os.Args-shaped input; everything after
// it consumes typed, checked fields — no string re-parsing downstream.
type options struct {
	ChainsPath    string
	TemplatesPath string

	Timeout     time.Duration
	NoFactoring bool
	Workers     int

	TCPAddr     string
	HTTPAddr    string
	QueueSize   int
	BatchMax    int
	Overflow    serve.OverflowPolicy
	ReadTimeout time.Duration
	MaxLineLen  int
	Grace       time.Duration
	Shards      int

	DataDir          string
	SnapshotInterval time.Duration
	Fsync            wal.SyncPolicy

	Watch   time.Duration
	Arbiter *arbiter.Config

	Cluster *serve.ClusterConfig
}

// parseOptions parses args (os.Args[1:] shape) into a validated options
// value. Errors are returned, not fatal: flag-syntax errors come from the
// FlagSet (which has already printed usage to stderr), validation errors are
// printed here in the same style. flag.ErrHelp passes through for -h.
func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("aarohid", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var o options
	fs.StringVar(&o.ChainsPath, "chains", "", "failure chains JSON (required)")
	fs.StringVar(&o.TemplatesPath, "templates", "", "template inventory JSON (required)")
	fs.DurationVar(&o.Timeout, "timeout", 0, "ΔT timeout override (default 4m)")
	fs.BoolVar(&o.NoFactoring, "no-factoring", false, "disable subchain factoring (ablation)")
	fs.IntVar(&o.Workers, "workers", 0, "predictor worker goroutines per shard (0 = GOMAXPROCS)")
	fs.StringVar(&o.TCPAddr, "tcp", ":7743", "TCP line-protocol listen address (\"off\" disables)")
	fs.StringVar(&o.HTTPAddr, "http", ":7780", "HTTP listen address (\"off\" disables)")
	fs.IntVar(&o.QueueSize, "queue", 4096, "ingest queue depth (lines)")
	fs.IntVar(&o.BatchMax, "ingest-batch", 256, "max lines coalesced into one WAL group-append and predictor batch (1 = batches of one line)")
	fs.DurationVar(&o.ReadTimeout, "read-timeout", 5*time.Minute, "per-connection idle read deadline")
	fs.IntVar(&o.MaxLineLen, "max-line", 1<<20, "maximum log line length (bytes)")
	fs.DurationVar(&o.Grace, "grace", 30*time.Second, "drain budget after SIGTERM/SIGINT")
	fs.IntVar(&o.Shards, "shards", 1, "local prediction shards; lines route by consistent-hashing the node ID")
	fs.StringVar(&o.DataDir, "data-dir", "", "durability directory (WAL + snapshots); empty disables persistence")
	fs.DurationVar(&o.SnapshotInterval, "snapshot-interval", 0, "period between parse-state snapshots (0 = only on graceful shutdown)")
	fs.DurationVar(&o.Watch, "watch", 0, "poll -chains/-templates for changes at this interval and hot-reload (0 = off)")

	var (
		gossipAddr      = fs.String("gossip-addr", "", "UDP bind address for cluster membership probes; enables cluster mode")
		join            = fs.String("join", "", "comma-separated seed peers' gossip addresses to join")
		peerName        = fs.String("peer-name", "", "cluster-unique peer name (default: hostname)")
		gossipAdvertise = fs.String("gossip-advertise", "", "gossip address peers should probe back (default: the bound -gossip-addr)")
		advertiseLine   = fs.String("advertise-line", "", "line-protocol address peers forward lines and ship WAL segments to (default: the bound -tcp address)")
		probeInterval   = fs.Duration("probe-interval", 0, "gossip probe cadence (default 250ms)")
		suspectTimeout  = fs.Duration("suspect-timeout", 0, "how long a suspected peer may stay silent before it is confirmed dead (default 8×probe interval)")
	)

	var (
		overflow    = fs.String("overflow", "block", "queue-full policy: block (backpressure) or shed (drop+count)")
		fsync       = fs.String("fsync", "batch", "WAL fsync policy: always (no acked loss), batch (bounded loss), off")
		arbEnabled  = fs.Bool("arbiter", false, "enable failure arbitration: phi-accrual heartbeats fused with chain evidence into ranked alerts (/predictions?mode=alerts)")
		horizon     = fs.Duration("horizon", 10*time.Minute, "arbiter prediction horizon M (chain evidence lifetime, TP/FP window)")
		alertThresh = fs.Float64("alert-threshold", 0.5, "minimum fused probability for a node to alert")
		criticality = fs.String("criticality", "", "per-node criticality tiers, \"node=tier,node=tier\" (1 = most critical)")
		tierWeights = fs.String("tier-weights", "", "ranking weight per tier, \"4,2,1\" (highest tier first)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	fail := func(format string, args ...any) (*options, error) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintf(stderr, "aarohid: %v\n", err)
		fs.Usage()
		return nil, err
	}

	if o.ChainsPath == "" || o.TemplatesPath == "" {
		return fail("-chains and -templates are required")
	}
	switch *overflow {
	case "block":
		o.Overflow = serve.Block
	case "shed":
		o.Overflow = serve.Shed
	default:
		return fail("-overflow must be block or shed, not %q", *overflow)
	}
	sync, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return fail("-fsync must be always, batch or off, not %q", *fsync)
	}
	o.Fsync = sync
	if o.QueueSize < 1 {
		return fail("-queue must be >= 1, not %d", o.QueueSize)
	}
	if o.BatchMax < 1 {
		return fail("-ingest-batch must be >= 1, not %d", o.BatchMax)
	}
	if o.Shards < 1 {
		return fail("-shards must be >= 1, not %d", o.Shards)
	}
	if o.Watch < 0 {
		return fail("-watch must be a non-negative duration, not %s", o.Watch)
	}

	if *arbEnabled {
		crit, err := arbiter.ParseCriticality(*criticality)
		if err != nil {
			return fail("-criticality: %v", err)
		}
		weights, err := arbiter.ParseTierWeights(*tierWeights)
		if err != nil {
			return fail("-tier-weights: %v", err)
		}
		o.Arbiter = &arbiter.Config{
			Horizon:        *horizon,
			AlertThreshold: *alertThresh,
			Criticality:    crit,
			TierWeights:    weights,
		}
	} else if *criticality != "" || *tierWeights != "" {
		return fail("-criticality/-tier-weights require -arbiter")
	}

	if *gossipAddr != "" {
		name := *peerName
		if name == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				return fail("-peer-name is required when the hostname is unavailable")
			}
			name = host
		}
		o.Cluster = &serve.ClusterConfig{
			Name:           name,
			GossipAddr:     *gossipAddr,
			Advertise:      *gossipAdvertise,
			AdvertiseLine:  *advertiseLine,
			Join:           splitPeers(*join),
			ProbeInterval:  *probeInterval,
			SuspectTimeout: *suspectTimeout,
		}
	} else {
		for flagName, v := range map[string]string{
			"-join": *join, "-peer-name": *peerName,
			"-gossip-advertise": *gossipAdvertise, "-advertise-line": *advertiseLine,
		} {
			if v != "" {
				return fail("%s requires -gossip-addr (cluster mode)", flagName)
			}
		}
		if *probeInterval != 0 || *suspectTimeout != 0 {
			return fail("-probe-interval/-suspect-timeout require -gossip-addr (cluster mode)")
		}
	}
	return &o, nil
}

// splitPeers parses a comma-separated peer address list, dropping empty
// entries ("a,b," is sloppy shell interpolation, not an error).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// predictorOptions is the compile-time model configuration the flags select.
func (o *options) predictorOptions() aarohi.Options {
	return aarohi.Options{Timeout: o.Timeout, DisableFactoring: o.NoFactoring}
}

// serveConfig assembles the server configuration from the validated options.
// serve.Config.Validate runs again inside Start — this function only maps
// fields, it adds no policy of its own.
func (o *options) serveConfig() serve.Config {
	return serve.Config{
		TCPAddr:          o.TCPAddr,
		HTTPAddr:         o.HTTPAddr,
		QueueSize:        o.QueueSize,
		BatchMax:         o.BatchMax,
		Overflow:         o.Overflow,
		ReadTimeout:      o.ReadTimeout,
		MaxLineLen:       o.MaxLineLen,
		Logf:             log.Printf,
		DataDir:          o.DataDir,
		SnapshotInterval: o.SnapshotInterval,
		Fsync:            o.Fsync,
		Shards:           o.Shards,
		Arbiter:          o.Arbiter,
		Cluster:          o.Cluster,
	}
}
