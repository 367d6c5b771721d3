// Package lifecycle is the fixture for the lifecycle rules: it coordinates
// shards, knows dead peers by name only (not through the cluster plane), and
// must not reach the ingest path. (The gossip fixture imports this one, so
// the gossip ban cannot be shown here without an import cycle.)
package lifecycle

import (
	_ "repro/internal/lint/testdata/src/layering/pipeline" // want "lifecycle must not import pipeline package"
	_ "repro/internal/lint/testdata/src/layering/shard"
	_ "repro/internal/lint/testdata/src/layering/ship" // want "lifecycle must not import ship package"
)
