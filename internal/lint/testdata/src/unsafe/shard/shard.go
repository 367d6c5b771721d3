// Package shard is the fixture for the shard layer: it places views of the
// pump's batch on shards without copying them, so it owns no recycled
// storage and may not make views of its own.
package shard

import "unsafe" // want "must not import unsafe: only the packages that own recycled line storage"

// View aliases b instead of copying it.
func View(b []byte) string { return unsafe.String(&b[0], len(b)) }
