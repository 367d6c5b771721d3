package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/predictor"
)

// hub fans predictor outputs out to any number of subscribers, so several
// consumers can follow GET /predictions (or an in-process Subscription)
// while attaching and detaching independently. Publishing never blocks: a
// subscriber that falls behind its buffer loses messages, counted in
// dropped — live prediction consumers must keep up, the stream is not a
// replay log.
type hub struct {
	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	closed  bool
	dropped atomic.Int64
}

// defaultSubBuffer is the per-subscription channel depth when the caller
// names none (every HTTP subscriber): at saturation the daemon emits outputs
// fast enough that a subscriber descheduled for some tens of milliseconds
// needs this much slack not to lose any. A full buffer still drops, and
// counts the drop.
const defaultSubBuffer = 4096

func newHub() *hub {
	return &hub{subs: map[*Subscription]struct{}{}}
}

// Subscription is one attached prediction consumer. Receive from Out until
// it closes; call Cancel when done (idempotent, safe concurrently with hub
// activity).
type Subscription struct {
	hub  *hub
	ch   chan predictor.Output
	once sync.Once
}

// Out delivers predictor outputs. It is closed when the subscription is
// cancelled or the server drains.
func (s *Subscription) Out() <-chan predictor.Output { return s.ch }

// Cancel detaches the subscription and closes Out.
func (s *Subscription) Cancel() {
	s.once.Do(func() {
		s.hub.mu.Lock()
		delete(s.hub.subs, s)
		s.hub.mu.Unlock()
		close(s.ch)
	})
}

// subscribe attaches a new consumer with the given buffer. On a closed hub
// the subscription comes back already cancelled (Out closed), which lets
// late subscribers terminate cleanly instead of hanging.
func (h *hub) subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = defaultSubBuffer
	}
	sub := &Subscription{hub: h, ch: make(chan predictor.Output, buffer)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		sub.once.Do(func() { close(sub.ch) })
		return sub
	}
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub
}

// publish delivers out to every subscriber without blocking; full buffers
// drop the message for that subscriber.
func (h *hub) publish(out predictor.Output) {
	h.mu.Lock()
	for sub := range h.subs {
		select {
		case sub.ch <- out:
		default:
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// close cancels every remaining subscriber and rejects future subscribes.
// Idempotent.
func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		sub.Cancel()
	}
}

// count returns the number of attached subscribers.
func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
