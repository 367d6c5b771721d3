package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// paceTick is how often the paced sender wakes. A line is sent at the first
// tick at or after its due time, so the generator adds at most one tick (plus
// scheduler oversleep) to a latency — and reports how much it did.
const paceTick = 250 * time.Microsecond

// chunkLines bounds one socket write of the unpaced sender.
const chunkLines = 2048

// sender is the one load-carrying line-protocol connection of a run.
type sender struct {
	conn net.Conn
	s    *stream
}

func dialSender(addr string, s *stream) (*sender, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &sender{conn: c, s: s}, nil
}

func (sd *sender) write(from, to int) error {
	for _, sp := range sd.s.spans(from, to) {
		if _, err := sd.conn.Write(sd.s.patch(sp.pass, sp.a, sp.b)); err != nil {
			return err
		}
	}
	return nil
}

// schedule is an open-loop send plan: global line `from+k` is due at
// t0 + k/rate, whatever the daemon does.
type schedule struct {
	t0   time.Time
	from int
	rate float64 // lines per second
}

func (sc schedule) due(i int) time.Time {
	return sc.t0.Add(time.Duration(float64(i-sc.from) / sc.rate * float64(time.Second)))
}

// paced sends lines [from,to) on the schedule. It returns the schedule (to
// time predictions from their line's due time) and, per socket write, how
// late the oldest line of that write was.
func (sd *sender) paced(from, to int, rate float64) (schedule, []time.Duration, error) {
	sc := schedule{t0: time.Now(), from: from, rate: rate}
	var late []time.Duration
	sent := from
	for sent < to {
		now := time.Now()
		due := from + int(now.Sub(sc.t0).Seconds()*rate) + 1
		if due > to {
			due = to
		}
		if due > sent {
			late = append(late, now.Sub(sc.due(sent)))
			if err := sd.write(sent, due); err != nil {
				return sc, late, err
			}
			sent = due
		}
		sleepUntil(sc.t0.Add((time.Since(sc.t0)/paceTick + 1) * paceTick))
	}
	return sc, late, nil
}

// sleepUntil blocks the calling thread in nanosleep(2). time.Sleep rounds a
// sub-millisecond wait up to about a millisecond (the runtime parks on an
// epoll timeout), which would make the generator a millisecond late.
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only makes the next tick shorter
	}
}

// progress is how far the unpaced sender had got at a moment.
type progress struct {
	lines int // sent since the phase began
	at    time.Time
}

// blast sends lines [from,to) as fast as the connection takes them: with the
// daemon's blocking queue, TCP backpressure makes this a closed loop with
// one client. It returns the sender's progress after every write; once the
// socket buffers and the queue are full, that is the daemon's progress.
func (sd *sender) blast(from, to int) ([]progress, error) {
	marks := make([]progress, 0, (to-from)/chunkLines+2)
	marks = append(marks, progress{0, time.Now()})
	for sent := from; sent < to; {
		next := min(sent+chunkLines, to)
		if err := sd.write(sent, next); err != nil {
			return marks, err
		}
		sent = next
		marks = append(marks, progress{sent - from, time.Now()})
	}
	return marks, nil
}

// The saturate phase is cut into equal runs and the median of their rates is
// reported, so a burst of interference from the host moves it less than it
// moves the total. A run is at least windowLines long — several times what
// the socket buffers and the queue hold, so the sender's progress stands for
// the daemon's — and there are at most maxWindows of them.
const (
	windowLines = 250000
	maxWindows  = 24
)

// windowRates cuts the phase into runs of equal line count and returns each
// run's lines per second. The last run ends when the daemon had processed
// everything (end), not when the sender had written it.
func windowRates(marks []progress, end time.Time) []float64 {
	total := marks[len(marks)-1].lines
	windows := min(maxWindows, max(1, total/windowLines))
	var rates []float64
	prev := marks[0]
	for w, i := 1, 1; w <= windows; w++ {
		target := total * w / windows
		for i < len(marks)-1 && marks[i].lines < target {
			i++
		}
		cur := marks[i]
		if w == windows {
			cur.at = end
		}
		if cur.lines > prev.lines && cur.at.After(prev.at) {
			rates = append(rates, float64(cur.lines-prev.lines)/cur.at.Sub(prev.at).Seconds())
		}
		prev = cur
	}
	return rates
}

// received is one NDJSON line off GET /predictions, stamped when it was read.
type received struct {
	at  time.Time
	raw []byte
}

// subscriber follows one daemon's GET /predictions stream.
type subscriber struct {
	resp  *http.Response
	preds atomic.Int64 // lines carrying a prediction, for completion checks

	mu   sync.Mutex
	got  []received
	done chan struct{}
}

var predictionMark = []byte(`"Prediction":{`)

// subscribe opens the stream. query is "" or e.g. "?replay=recovered".
func subscribe(httpAddr, query string) (*subscriber, error) {
	resp, err := http.Get("http://" + httpAddr + "/predictions" + query)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /predictions: %s", resp.Status)
	}
	sub := &subscriber{resp: resp, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		rd := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, err := rd.ReadBytes('\n')
			at := time.Now()
			if len(line) > 1 {
				sub.mu.Lock()
				sub.got = append(sub.got, received{at, line})
				sub.mu.Unlock()
				if bytes.Contains(line, predictionMark) {
					sub.preds.Add(1)
				}
			}
			if err != nil {
				return // the stream ended: the daemon is gone or close was called
			}
		}
	}()
	return sub, nil
}

// take returns what has arrived since the last take.
func (sub *subscriber) take() []received {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	got := sub.got
	sub.got = nil
	return got
}

// close ends the subscription and waits for the reader to exit.
func (sub *subscriber) close() {
	sub.resp.Body.Close()
	<-sub.done
}

// wireOutput is the NDJSON shape of predictor.Output.
type wireOutput struct {
	Prediction *struct {
		Node      string
		ChainName string
		MatchedAt time.Time
	}
	Failure *struct{ Node string }
}

// decode parses one received line into a prediction key (isPred=false for a
// failure report).
func (r received) decode() (k predKey, isPred bool, err error) {
	var w wireOutput
	if err := json.Unmarshal(r.raw, &w); err != nil {
		return k, false, fmt.Errorf("prediction stream: %w: %q", err, r.raw)
	}
	if w.Prediction == nil {
		return k, false, nil
	}
	return predKey{w.Prediction.Node, w.Prediction.ChainName, w.Prediction.MatchedAt.UnixMilli()}, true, nil
}
