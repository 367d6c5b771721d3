package main

// peerSpec is one aarohid process of a workload.
type peerSpec struct {
	name    string
	shards  int
	flags   []string // beyond -shards
	durable bool     // runs with -data-dir (WAL, and WAL shipping in a cluster)
}

// workload is one traffic mix and deployment. Its rates are constants frozen
// from runs of the seed commit (see README.md, "How the rates were frozen"):
// they are never derived at run time, so two commits are sent identical
// work and the oracle is exact.
type workload struct {
	name string
	why  string

	stream streamSpec
	// peers[0] receives every line over the one load-carrying connection.
	peers []peerSpec
	// alertsPoller adds a 10 Hz GET /predictions?mode=alerts reader.
	alertsPoller bool

	// pacedRate is the open-loop rate in lines/s, ≈20 % of the seed's
	// saturation rate on this workload.
	pacedRate float64
	// blastPerSecond sizes the saturate phase: lines per second of run
	// length, chosen so the seed spends ≈0.3 of the run length in it.
	blastPerSecond float64
}

// pacedShare is the part of the run length the paced phase lasts.
const pacedShare = 0.5

func (w *workload) pacedLines(seconds int) int {
	return int(w.pacedRate * pacedShare * float64(seconds))
}

func (w *workload) blastLines(seconds int) int {
	return int(w.blastPerSecond * float64(seconds))
}

// benignStream is shared byte for byte by benign-mem and benign-wal, so the
// difference between their numbers is the journal and nothing else.
var benignStream = streamSpec{nodes: 64, benignPerMin: 3.3, failures: 150, anomalyRate: 0.001}

var workloads = []*workload{
	{
		name:   "benign-mem",
		why:    "98% of lines are discarded by the scanner and nothing is journaled: per-line fixed costs (socket, queue, batch cut, route key, header parse) are all the work",
		stream: benignStream,
		peers:  []peerSpec{{name: "a", shards: 1}},

		pacedRate:      400000,
		blastPerSecond: 600000,
	},
	{
		name:   "benign-wal",
		why:    "the same bytes as benign-mem plus -data-dir -fsync batch, then SIGKILL and replay: the difference is the journal on the write side and at recovery",
		stream: benignStream,
		peers:  []peerSpec{{name: "a", shards: 1, flags: []string{"-fsync", "batch"}, durable: true}},

		pacedRate:      185000,
		blastPerSecond: 125000,
	},
	{
		name:         "chains-sharded",
		why:          "over 40% of lines are failure-chain phrases on 256 nodes with drops and timeouts, two shards, the arbiter and an alerts poller: scan, parse, routing and arbitration dominate",
		stream:       streamSpec{nodes: 256, benignPerMin: 0.5, failures: 250, anomalyRate: 0.47, dropProb: 0.1},
		peers:        []peerSpec{{name: "a", shards: 2, flags: []string{"-arbiter"}}},
		alertsPoller: true,

		pacedRate:      360000,
		blastPerSecond: 450000,
	},
	{
		name:   "cluster-fwd",
		why:    "two gossiping peers; every line enters peer a and about half hop to peer b: placement, the forwarder and the forwarded-ingest lane run here and nowhere else",
		stream: streamSpec{nodes: 64, benignPerMin: 3.3, failures: 300, anomalyRate: 0.05},
		peers: []peerSpec{
			{name: "a", shards: 1},
			{name: "b", shards: 1},
		},

		pacedRate:      280000,
		blastPerSecond: 385000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
