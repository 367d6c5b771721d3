package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP front end speaks the same protocol as cmd/aarohi's stdin: one raw
// log line ("RFC3339-ms node message...") per newline-terminated frame.
// There is no response stream — predictions are consumed over HTTP — so a
// plain `loggen -stream` or `nc` can feed the daemon. Backpressure in Block
// mode is the ingest queue: when it is full the reader stops pulling from
// the socket and the kernel's flow control throttles the sender.

// TCP is the line-protocol listener. Construct with NewTCP, bind with Start,
// stop with StopAccepting (then SetDrainDeadline/ForceClose to bound the
// drain of connections already open).
// Hijacker inspects a connection's first line before normal line ingest
// begins. A non-nil return takes over the connection: the handler owns it
// for the rest of its life (the transport still tracks it for drain
// deadlines and force-close, and still releases the producer registration
// when the handler returns). A nil return means "not mine" and the first
// line is ingested normally. The serve layer uses this to multiplex peer
// protocols — forwarded-line streams and shard-shipping sessions — onto the
// one line listener, without the transport knowing either protocol.
type Hijacker func(first string) HijackHandler

// HijackHandler runs a hijacked connection's session. rd wraps c and holds
// whatever the transport buffered past the first line; read through rd, not
// c. The connection arrives with no read deadline set.
type HijackHandler func(c net.Conn, rd *bufio.Reader)

type TCP struct {
	cfg         Config
	ing         Ingestor
	readTimeout time.Duration
	hijack      Hijacker
	batch       func(lines []string) int

	ln         net.Listener
	acceptDone chan struct{}

	connMu     sync.Mutex
	conns      map[net.Conn]struct{}
	openConns  atomic.Int64
	totalConns atomic.Int64
}

// NewTCP builds a TCP front end over ing. readTimeout is the per-read idle
// deadline applied to every connection.
func NewTCP(cfg Config, ing Ingestor, readTimeout time.Duration) *TCP {
	return &TCP{
		cfg:         cfg,
		ing:         ing,
		readTimeout: readTimeout,
		acceptDone:  make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
}

// SetHijacker installs the first-line protocol multiplexer. Call before
// Start; nil (the default) keeps the pure line-protocol path.
func (t *TCP) SetHijacker(h Hijacker) { t.hijack = h }

// SetBatchIngest wires the chunk path: every socket read's lines go to fn as
// one call instead of one Ingestor.Ingest call per line. The slice and its
// lines are views of the connection's reused read buffer, valid only until fn
// returns: fn copies what it keeps. Call before Start. The wiring is explicit
// rather than discovered by type-asserting the Ingestor, so an Ingestor that
// wraps another to observe Ingest keeps seeing every line.
func (t *TCP) SetBatchIngest(fn func(lines []string) int) { t.batch = fn }

// Start binds addr and launches the accept loop.
func (t *TCP) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: tcp listen: %w", err)
	}
	t.ln = ln
	go t.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address (nil before Start).
func (t *TCP) Addr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// Open is the number of currently open connections.
func (t *TCP) Open() int64 { return t.openConns.Load() }

// Total is the number of connections accepted since Start.
func (t *TCP) Total() int64 { return t.totalConns.Load() }

// StopAccepting closes the listener and waits for the accept loop to exit.
// Connections already open keep draining; no-op before Start.
func (t *TCP) StopAccepting() {
	if t.ln == nil {
		return
	}
	t.ln.Close()
	<-t.acceptDone
}

// SetDrainDeadline sets a read deadline on every open connection, bounding
// how long a silent sender can hold up a drain.
func (t *TCP) SetDrainDeadline(deadline time.Time) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	for c := range t.conns {
		c.SetReadDeadline(deadline)
	}
}

// ForceClose closes every open connection outright — the drain-grace
// overrun path.
func (t *TCP) ForceClose() {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	for c := range t.conns {
		c.Close()
	}
}

// acceptLoop accepts line-protocol connections until the listener closes.
func (t *TCP) acceptLoop(ln net.Listener) {
	defer close(t.acceptDone)
	for {
		c, err := ln.Accept()
		if err != nil {
			if !t.ing.Draining() {
				t.cfg.Logf("serve: tcp accept: %v", err)
			}
			return
		}
		if !t.ing.BeginProduce() {
			c.Close() // raced with drain start
			continue
		}
		t.connMu.Lock()
		t.conns[c] = struct{}{}
		t.connMu.Unlock()
		t.openConns.Add(1)
		t.totalConns.Add(1)
		go t.handleConn(c)
	}
}

// handleConn reads newline-framed log lines off one connection and enqueues
// them. It exits on EOF, a read error, an over-long line, or the idle
// deadline; the producer registration taken in acceptLoop is released on
// return, which is what lets Shutdown know the connection's lines are all
// in the queue.
func (t *TCP) handleConn(c net.Conn) {
	defer func() {
		t.connMu.Lock()
		delete(t.conns, c)
		t.connMu.Unlock()
		t.openConns.Add(-1)
		c.Close()
		t.ing.EndProduce()
	}()

	var br *bufio.Reader
	if t.hijack != nil {
		// Peel the first line off ourselves so a peer protocol can claim the
		// connection; everything read past it stays in br for whoever wins.
		br = bufio.NewReaderSize(c, readBufSize)
		if !t.ing.Draining() {
			c.SetReadDeadline(time.Now().Add(t.readTimeout))
		}
		first, err := readFirstLine(br, t.cfg.MaxLineLen)
		if err != nil {
			if !errors.Is(err, io.EOF) && !t.ing.Draining() {
				t.cfg.Logf("serve: %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		if h := t.hijack(first); h != nil {
			c.SetReadDeadline(time.Time{}) // the session owns its deadlines
			h(c, br)
			return
		}
		if first != "" {
			submit(t.ing, t.batch, []string{first})
		}
	}
	err := t.ReadLines(c, br, func(lines []string) { submit(t.ing, t.batch, lines) })
	if err != nil && !t.ing.Draining() {
		t.cfg.Logf("serve: %s: %v", c.RemoteAddr(), err)
	}
}

// ReadLines frames newline-terminated lines off c until it fails, handing
// emit the lines of each socket read as one chunk (see readLines for the
// framing rules). The lines are views of one read buffer that ReadLines
// reuses for the connection's life: each is valid only until emit returns,
// so emit copies what it keeps. rd, when non-nil, is the hijack
// peel's reader over c: its unread bytes come first and it is not used
// again. The idle read deadline is armed once per read — never once a drain
// has begun, so it cannot extend the drain deadline Shutdown set. io.EOF is
// a nil return. Both line lanes — this listener's own connections and the
// serve layer's peer-forwarded ones — read through here.
func (t *TCP) ReadLines(c net.Conn, rd *bufio.Reader, emit func(lines []string)) error {
	n := 0
	if rd != nil {
		n = rd.Buffered()
	}
	buf := make([]byte, max(readBufSize, n))
	if n > 0 {
		rd.Read(buf[:n]) // served whole from rd's buffer: no I/O, no error
	}
	arm := func() {
		if !t.ing.Draining() {
			c.SetReadDeadline(time.Now().Add(t.readTimeout))
		}
	}
	return readLines(c, buf, n, t.cfg.MaxLineLen, arm, emit)
}

// readFirstLine reads one newline-terminated line (stripping "\r\n" like the
// scanner does) with a hard length cap.
func readFirstLine(br *bufio.Reader, max int) (string, error) {
	var acc []byte
	for {
		frag, err := br.ReadSlice('\n')
		acc = append(acc, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(acc) > max {
				return "", fmt.Errorf("first line exceeds %d bytes", max)
			}
			continue
		}
		return "", err
	}
	if len(acc) > max+1 {
		return "", fmt.Errorf("first line exceeds %d bytes", max)
	}
	if n := len(acc); n > 0 && acc[n-1] == '\n' {
		acc = acc[:n-1]
		if n := len(acc); n > 0 && acc[n-1] == '\r' {
			acc = acc[:n-1]
		}
	}
	return string(acc), nil
}
