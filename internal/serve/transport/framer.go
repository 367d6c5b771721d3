package transport

import (
	"bytes"
	"errors"
	"io"
	"unsafe"

	"repro/internal/recycle"
)

// readBufSize is the framer's read buffer: one socket read hands the layers
// below up to this many bytes of lines as a single chunk. It is also the
// size of the buffered reader the hijack peel leaves behind, so that
// reader's unread bytes always fit the framer's first buffer.
const readBufSize = 64 << 10

var errLineTooLong = errors.New("line exceeds the maximum line length")

// readLines reads newline-framed lines from r until it fails, calling emit
// once per read that completed at least one line. buf[:n] holds bytes already
// read from the stream (the hijack peel's buffered prefix); buf is reused for
// every read and grows, by doubling up to maxLine, only while one line
// overflows it. arm, when non-nil, runs before every read.
//
// Each emit gets the lines one read completed, in order, as views of buf —
// nothing is copied and, once the slice emit receives has grown to the
// largest chunk, nothing is allocated. A line, like the slice, is valid only
// until emit returns: the framer then releases those bytes and moves the
// partial last line to the front of buf for the next read, so emit copies
// whatever it keeps. Framing is bufio.Scanner's with ScanLines: a trailing
// "\r" is stripped, empty lines are skipped, whatever is buffered when the
// read fails — an unterminated last line included — is delivered before
// returning, io.EOF returns nil, and a line that fills a buffer already at
// maxLine returns errLineTooLong.
//
//aarohi:hotpath
func readLines(r io.Reader, buf []byte, n, maxLine int, arm func(), emit func(lines []string)) error {
	var (
		lines    []string
		searched int // buf[:searched] holds no newline
		rerr     error
	)
	for {
		end := -1
		if rerr != nil {
			end = n
		} else if i := bytes.LastIndexByte(buf[searched:n], '\n'); i >= 0 {
			end = searched + i
		}
		if end >= 0 {
			// emit reads the lines in place, so it must run before the tail
			// moves over them.
			if lines = splitLines(lines[:0], buf[:end]); len(lines) > 0 {
				emit(lines)
			}
			done := min(end+1, n)
			recycle.Release(buf[:done])
			n = copy(buf, buf[done:n])
		}
		if rerr != nil {
			if rerr == io.EOF {
				return nil
			}
			return rerr
		}
		searched = n
		if n == len(buf) {
			if len(buf) >= maxLine {
				return errLineTooLong
			}
			//aarohi:allow hotpath only while a single line overflows the buffer
			grown := make([]byte, min(2*len(buf), maxLine))
			copy(grown, buf)
			buf = grown
		}
		if arm != nil {
			arm()
		}
		var m int
		m, rerr = r.Read(buf[n:])
		n += m
	}
}

// splitLines appends chunk's non-empty lines to dst as views of chunk's
// bytes, stripping one trailing "\r" from each. The last line need not be
// terminated.
//
//aarohi:hotpath
func splitLines(dst []string, chunk []byte) []string {
	for len(chunk) > 0 {
		line := chunk
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			line, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = nil
		}
		if l := len(line); l > 0 && line[l-1] == '\r' {
			line = line[:l-1]
		}
		if len(line) > 0 {
			// A view, not a copy: chunk is readLines' own read buffer, which
			// is neither written nor released until emit has returned, and
			// the line's lifetime ends there.
			dst = append(dst, unsafe.String(&line[0], len(line)))
		}
	}
	return dst
}

// submit hands one chunk to the layers below and returns how many lines were
// accepted: through batch — the explicit chunk path the serve layer wires —
// when set, else line by line through the Ingestor. Either way the lines are
// only lent for the call.
//
//aarohi:hotpath
func submit(ing Ingestor, batch func(lines []string) int, lines []string) int {
	if batch != nil {
		return batch(lines)
	}
	accepted := 0
	for _, line := range lines {
		if ing.Ingest(line) {
			accepted++
		}
	}
	return accepted
}
