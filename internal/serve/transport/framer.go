package transport

import (
	"bytes"
	"errors"
	"io"
	"strings"
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
// Each emit gets the lines one read completed, in order, as substrings of one
// freshly copied string — the only per-chunk allocation besides the first
// growth of the slice emit receives, which is reused for the next call and
// must not be retained. Framing is bufio.Scanner's with ScanLines: a trailing
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
			//aarohi:allow hotpath one copy per chunk, not per line: the read buffer is reused, so the lines need a home of their own
			lines = splitLines(lines[:0], string(buf[:end]))
			n = copy(buf, buf[min(end+1, n):n])
			if len(lines) > 0 {
				emit(lines)
			}
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

// splitLines appends chunk's non-empty lines to dst as substrings, stripping
// one trailing "\r" from each. The last line need not be terminated.
//
//aarohi:hotpath
func splitLines(dst []string, chunk string) []string {
	for len(chunk) > 0 {
		line := chunk
		if i := strings.IndexByte(chunk, '\n'); i >= 0 {
			line, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = ""
		}
		if l := len(line); l > 0 && line[l-1] == '\r' {
			line = line[:l-1]
		}
		if line != "" {
			dst = append(dst, line)
		}
	}
	return dst
}

// submit hands one chunk to the layers below and returns how many lines were
// accepted: through batch — the explicit chunk path the serve layer wires —
// when set, else line by line through the Ingestor.
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
