package main

import (
	"bytes"
	"fmt"
	"time"
)

// The host this benchmark runs on is a small VM on a shared machine, and its
// speed drifts by a quarter over minutes: every time-based number of a run
// (CPU per line, lines per second, latency, set-up, recovery) moves by the
// same factor from one run to the next, whatever the daemon does. The
// yardstick is a fixed amount of work that uses no code of the repository
// under test, timed between the phases of every run. A run's times are
// divided and its rates multiplied by the run's slowdown — the mean reading
// over calibReference — so the reported numbers are what the reference host
// would have shown. README.md, "The yardstick", has the measurements behind
// the choice of work.

// calibReference is the yardstick's reading, in seconds, on the VM the
// workloads' rates were frozen on, while that VM was quiet.
const calibReference = 0.047

const (
	// calibRounds is how many rounds make one reading. The reading is the
	// median round, so a stall that hits a round or two does not move it.
	calibRounds = 5
	// calibTextPasses and calibSumPasses size one round: about 22 ms of line
	// handling and 25 ms of arithmetic on the reference host.
	calibTextPasses = 72
	calibSumPasses  = 120000
)

// calibrator holds the yardstick's fixed inputs.
type calibrator struct {
	text  []byte   // 1 MiB of 100-byte pseudo log lines
	ring  []byte   // where handled lines are copied to
	words []uint64 // 4 KiB of operands
	sink  uint64   // keeps the results alive
}

func newCalibrator() *calibrator {
	c := &calibrator{
		text:  make([]byte, 0, 1<<20),
		ring:  make([]byte, 256<<10),
		words: make([]uint64, 512),
	}
	// Fixed pseudo-random inputs: xorshift from a constant.
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.words {
		c.words[i] = next()
	}
	for len(c.text)+100 <= cap(c.text) {
		r := next()
		line := fmt.Appendf(nil, "2015-03-%02d %02d:%02d:%02d.%06d c%d-%dc%ds%dn%d ",
			r%28+1, r>>8%24, r>>16%60, r>>24%60, r>>32%1000000, r>>40%8, r>>44%4, r>>48%3, r>>52%16, r>>56%4)
		for len(line) < 99 {
			line = append(line, byte('a'+next()%26))
		}
		c.text = append(append(c.text, line[:99]...), '\n')
	}
	return c
}

// handleLines does what a line-protocol server does to its input, with the
// standard library only: split at newlines, read a numeric field, hash the
// node field, copy the line on.
func (c *calibrator) handleLines() {
	text, pos := c.text, 0
	for {
		n := bytes.IndexByte(text, '\n')
		if n < 0 {
			return
		}
		line := text[:n]
		var secs uint64
		for _, ch := range line[11:19] {
			if ch >= '0' && ch <= '9' {
				secs = secs*10 + uint64(ch-'0')
			}
		}
		node := line[27:]
		node = node[:bytes.IndexByte(node, ' ')]
		h := uint64(14695981039346656037)
		for _, ch := range node {
			h = (h ^ uint64(ch)) * 1099511628211
		}
		c.sink += secs + h
		if pos+n+1 > len(c.ring) {
			pos = 0
		}
		pos += copy(c.ring[pos:], text[:n+1])
		text = text[n+1:]
	}
}

// sum runs four independent multiply-add chains over the operands: as many
// instructions a cycle as the core gives, which is what a busy sibling
// hyperthread takes away first.
func (c *calibrator) sum() {
	var p, q, r, s uint64 = 1, 2, 3, 4
	w := c.words
	for i := 0; i+4 <= len(w); i += 4 {
		p = p*31 + w[i]
		q = q*33 + w[i+1]
		r = r*37 + w[i+2]
		s = s*41 + w[i+3]
	}
	c.sink += p ^ q ^ r ^ s
}

// read takes one reading: calibRounds rounds on one thread, the median
// round's time in seconds.
func (c *calibrator) read() float64 {
	var took [calibRounds]float64
	for r := range took {
		start := time.Now()
		for i := 0; i < calibTextPasses; i++ {
			c.handleLines()
		}
		for i := 0; i < calibSumPasses; i++ {
			c.sum()
		}
		took[r] = time.Since(start).Seconds()
	}
	return median(took[:])
}

// slowdown is how many times slower than the reference the host ran while
// the readings were taken.
func slowdown(readings []float64) float64 {
	total := 0.0
	for _, r := range readings {
		total += r
	}
	return total / float64(len(readings)) / calibReference
}
