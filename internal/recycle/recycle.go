// Package recycle is what the ingest path's recycled byte stores share: the
// framer's read buffer, the pipeline's line slabs and the predictor
// manager's per-worker batches. Each of those
// hands out lines that are views of storage it reuses, valid only until the
// call that received them returns. A consumer that keeps such a line past
// that point reads whatever the store holds next — silently, and only when
// the timing lines up. Release makes that failure loud in tests.
package recycle

import "sync/atomic"

// TestHookPoison, while positive, makes Release overwrite every byte it is
// handed with PoisonByte, so a line kept past its lifetime reads as garbage
// at once instead of as a plausible later line. It is a counter rather than
// a flag so parallel tests can each turn it on (Add(1)) and off (Add(-1))
// without clearing one another's. Tests only.
var TestHookPoison atomic.Int32

// PoisonByte is what a poisoned store is filled with: not a character a log
// timestamp, node ID or phrase starts with.
const PoisonByte = '#'

// Release marks b as free for reuse. It costs one atomic load unless
// TestHookPoison is on.
//
//aarohi:hotpath
func Release(b []byte) {
	if TestHookPoison.Load() > 0 {
		for i := range b {
			b[i] = PoisonByte
		}
	}
}

// PoisonForTest turns TestHookPoison on until cleanup runs the func it is
// given: pass a test's t.Cleanup.
func PoisonForTest(cleanup func(func())) {
	TestHookPoison.Add(1)
	cleanup(func() { TestHookPoison.Add(-1) })
}
