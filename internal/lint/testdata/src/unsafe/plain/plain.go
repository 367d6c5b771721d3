// Package plain is the fixture for every other package: it owns no recycled
// storage, so an unsafe view it makes is an alias nobody accounts for.
package plain

import "unsafe" // want "must not import unsafe: only the packages that own recycled line storage"

// View aliases b instead of copying it.
func View(b []byte) string { return unsafe.String(&b[0], len(b)) }
