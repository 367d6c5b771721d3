// Package pipeline is the fixture for an owner of recycled line storage: it
// may hand out string views of a buffer it reuses.
package pipeline

import "unsafe"

// View returns b as a string without copying; b must outlive the string.
func View(b []byte) string { return unsafe.String(&b[0], len(b)) }
