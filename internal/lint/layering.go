package lint

import (
	"strconv"
	"strings"
)

// Layering enforces the serve daemon's one-way layer DAG at the import graph:
//
//	transport ──▶ (Ingestor interface only)
//	pipeline  ──▶ (Sink interface only)
//	shard     ──▶ ring + domain packages
//	lifecycle ──▶ shard, never the cluster plane (gossip, ship)
//	serve     ──▶ everything (composition root)
//	ring      ──▶ nothing above internal/core
//	gossip    ──▶ ring + domain packages, never a serve layer
//	ship      ──▶ same: the WAL-shipping peer of gossip
//
// The decomposition of internal/serve only holds its value while the arrows
// stay one-way: the moment transport reaches into pipeline internals or a
// shard calls back up into a listener, the layers collapse back into the
// monolith they replaced. The compiler rejects cycles but not skipped layers,
// so this analyzer checks every module-internal import against the DAG.
//
// Packages are classified by the last segment of their import path, so the
// rules apply to any module package named after a layer (including test
// fixtures); packages outside the module — the standard library's
// container/ring, for instance — are never classified.
var Layering = &Analyzer{
	Name: "layering",
	Doc: "enforce the serve layer DAG: transport and pipeline know only their " +
		"downward interfaces, shards never import the layers that drive them, " +
		"and the hash ring imports nothing above internal/core",
	Run: runLayering,
}

// layerNames is the set of path segments that place a module package in the
// DAG. Packages whose last segment is anything else are unconstrained.
var layerNames = map[string]bool{
	"transport": true,
	"pipeline":  true,
	"shard":     true,
	"lifecycle": true,
	"serve":     true,
	"ring":      true,
	"core":      true,
	"gossip":    true,
	"ship":      true,
}

// layerRules lists, per importing layer, the layers it must never import and
// the invariant the ban preserves. serve and core are absent: serve is the
// composition root and may import everything; core sits at the bottom and has
// nothing below it to reach.
var layerRules = map[string]struct {
	deny   map[string]bool
	reason string
}{
	"transport": {
		deny:   map[string]bool{"pipeline": true, "shard": true, "lifecycle": true, "serve": true, "ring": true},
		reason: "transport knows the daemon only through the Ingestor interface",
	},
	"pipeline": {
		deny:   map[string]bool{"transport": true, "shard": true, "lifecycle": true, "serve": true, "ring": true},
		reason: "the pipeline drives its Sink interface and nothing above it",
	},
	"shard": {
		deny:   map[string]bool{"transport": true, "pipeline": true, "lifecycle": true, "serve": true},
		reason: "shards are driven by the layers above and never call back up",
	},
	"lifecycle": {
		deny:   map[string]bool{"transport": true, "pipeline": true, "serve": true, "gossip": true, "ship": true},
		reason: "lifecycle coordinates shards, knows peers by name only, and must not reach the ingest path",
	},
	// The cluster plane sits beside the daemon, not above it: the serve layer
	// composes gossip and ship, so neither may reach back into any serve
	// layer (membership must stay usable without a daemon around it).
	"gossip": {
		deny:   map[string]bool{"transport": true, "pipeline": true, "shard": true, "lifecycle": true, "serve": true},
		reason: "gossip is membership only — the serve layers compose it, never the reverse",
	},
	"ship": {
		deny:   map[string]bool{"transport": true, "pipeline": true, "shard": true, "lifecycle": true, "serve": true},
		reason: "WAL shipping moves journal bytes between peers and must not know the daemon that owns them",
	},
}

// layerOf classifies a package path: its last segment when the package is
// inside the module and the segment names a layer, "" otherwise.
func layerOf(module, path string) string {
	if module == "" || !strings.HasPrefix(path, module+"/") {
		return ""
	}
	seg := path[strings.LastIndexByte(path, '/')+1:]
	if !layerNames[seg] {
		return ""
	}
	return seg
}

func runLayering(p *Pass) error {
	self := layerOf(p.Module, p.Pkg.Path())
	if self == "" {
		return nil
	}
	rule, restricted := layerRules[self]
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if self == "ring" {
				// The ring hashes member names; it depends on nothing in the
				// module above internal/core, classified or not.
				if strings.HasPrefix(path, p.Module+"/") && layerOf(p.Module, path) != "core" {
					p.Reportf(imp.Pos(), "ring must not import %s: the hash ring sits below every layer and imports nothing above internal/core", path)
				}
				continue
			}
			if !restricted {
				continue
			}
			target := layerOf(p.Module, path)
			if target != "" && rule.deny[target] {
				p.Reportf(imp.Pos(), "%s must not import %s package %s: %s", self, target, path, rule.reason)
			}
		}
	}
	return nil
}
