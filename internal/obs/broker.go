package obs

import (
	"context"
	"errors"
	"sync"
)

// ErrStreamClosed is returned by Subscription.Next once a closed topic has
// been fully drained: no further events will ever arrive.
var ErrStreamClosed = errors.New("obs: stream closed")

// ErrNoTopic is returned by Subscribe for a topic the broker has never seen.
var ErrNoTopic = errors.New("obs: no such topic")

// DefaultRingEvents bounds a topic created by a Broker configured with no
// explicit per-topic capacity. 512 events comfortably retains a job's
// lifecycle transitions plus its progress stream; a trace-sampled job can
// overflow it, which is exactly what the gap-marker protocol is for.
const DefaultRingEvents = 512

// StreamEvent is one published event on a broker topic. Seq is 1-based and
// strictly increasing per topic — the resume cursor of the SSE protocol.
// Data is opaque to the broker (the service publishes JSON).
type StreamEvent struct {
	Seq  uint64
	Type string
	Data []byte
}

// Broker is a bounded in-process pub/sub hub: named topics, each a bounded
// ring of StreamEvents with monotonically increasing sequence numbers.
// Publishing never blocks and never drops the newest event — under
// backpressure the oldest retained events are evicted and a slow subscriber
// observes the loss as a gap (Subscription.Next reports how many events it
// skipped), never as silent corruption. Subscribers pull at their
// own pace through a per-subscription cursor, which is what makes
// Last-Event-ID resume after a reconnect a one-line operation.
//
// All methods are safe for concurrent use.
type Broker struct {
	ringCap int

	mu     sync.Mutex
	topics map[string]*topic
	subs   int
}

// topic is one event stream: a ring of the most recent events plus a
// broadcast channel subscribers park on while the ring is drained. The ring
// grows by appending up to the broker's bound and only then wraps, so a
// topic holds memory for the events it has seen, not for the bound: most
// jobs publish a handful of events, and topics live as long as the broker.
type topic struct {
	mu      sync.Mutex
	ring    []StreamEvent
	start   int // ring index of the oldest retained event (0 until it wraps)
	nextSeq uint64
	closed  bool
	wake    chan struct{} // closed and replaced on every publish/close
}

// NewBroker returns a broker whose topics retain at most ringEvents events
// each (<= 0 selects DefaultRingEvents).
func NewBroker(ringEvents int) *Broker {
	if ringEvents <= 0 {
		ringEvents = DefaultRingEvents
	}
	return &Broker{ringCap: ringEvents, topics: make(map[string]*topic)}
}

// Open creates a topic if it does not exist yet. Creating the topic before
// the first publish lets early subscribers attach without racing the
// publisher.
func (b *Broker) Open(name string) {
	b.mu.Lock()
	if _, ok := b.topics[name]; !ok {
		b.topics[name] = &topic{wake: make(chan struct{})}
	}
	b.mu.Unlock()
}

func (b *Broker) topic(name string) *topic {
	b.mu.Lock()
	t := b.topics[name]
	b.mu.Unlock()
	return t
}

// Publish appends one event to a topic and returns its sequence number. The
// topic is created on first use. Publishing to a closed topic is a no-op
// returning 0: the close was the terminal event, nothing may follow it.
func (b *Broker) Publish(name, typ string, data []byte) uint64 {
	b.Open(name)
	t := b.topic(name)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0
	}
	t.nextSeq++
	ev := StreamEvent{Seq: t.nextSeq, Type: typ, Data: data}
	if len(t.ring) < b.ringCap {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.start] = ev
		t.start = (t.start + 1) % len(t.ring)
	}
	seq := ev.Seq
	close(t.wake)
	t.wake = make(chan struct{})
	t.mu.Unlock()
	return seq
}

// CloseTopic marks a topic terminal: subscribers drain the retained ring and
// then get ErrStreamClosed. Closing an unknown or already-closed topic is a
// no-op.
func (b *Broker) CloseTopic(name string) {
	t := b.topic(name)
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.wake)
		t.wake = make(chan struct{})
	}
	t.mu.Unlock()
}

// CloseAll closes every topic — the shutdown backstop that releases any
// subscriber still parked when the server stops.
func (b *Broker) CloseAll() {
	b.mu.Lock()
	names := make([]string, 0, len(b.topics))
	for name := range b.topics {
		names = append(names, name)
	}
	b.mu.Unlock()
	for _, name := range names {
		b.CloseTopic(name)
	}
}

// Topics returns the number of topics the broker currently holds.
func (b *Broker) Topics() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.topics)
}

// Subscribers returns the number of open subscriptions across all topics.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.subs
}

// Subscription is one reader's cursor into a topic. Not safe for concurrent
// use by multiple goroutines (each reader subscribes for itself).
type Subscription struct {
	b      *Broker
	t      *topic
	cursor uint64 // next sequence number to deliver
	closed bool
}

// Subscribe attaches a reader to a topic, resuming after sequence number
// `after` (0: from the oldest retained event). A cursor pointing past the
// newest event — e.g. a Last-Event-ID from a previous server incarnation —
// is clamped so the reader picks up with whatever is published next.
func (b *Broker) Subscribe(name string, after uint64) (*Subscription, error) {
	t := b.topic(name)
	if t == nil {
		return nil, ErrNoTopic
	}
	t.mu.Lock()
	if after > t.nextSeq {
		after = t.nextSeq
	}
	t.mu.Unlock()
	b.mu.Lock()
	b.subs++
	b.mu.Unlock()
	return &Subscription{b: b, t: t, cursor: after + 1}, nil
}

// Next blocks until the next event is available and returns it together
// with the number of events that were evicted before it could be read (0:
// no loss; a positive value is the subscriber's cue to surface a gap
// marker). It returns ErrStreamClosed once a closed topic is drained, and
// ctx.Err when the context ends first.
func (s *Subscription) Next(ctx context.Context) (StreamEvent, uint64, error) {
	for {
		s.t.mu.Lock()
		var lost uint64
		if n := len(s.t.ring); n > 0 {
			oldest := s.t.ring[s.t.start].Seq
			latest := oldest + uint64(n) - 1
			if s.cursor < oldest {
				lost = oldest - s.cursor
				s.cursor = oldest
			}
			if s.cursor <= latest {
				ev := s.t.ring[(s.t.start+int(s.cursor-oldest))%n]
				s.cursor++
				s.t.mu.Unlock()
				return ev, lost, nil
			}
		}
		if s.t.closed {
			s.t.mu.Unlock()
			return StreamEvent{}, 0, ErrStreamClosed
		}
		wake := s.t.wake
		s.t.mu.Unlock()
		select {
		case <-ctx.Done():
			return StreamEvent{}, 0, ctx.Err()
		case <-wake:
		}
	}
}

// Close releases the subscription. Safe to call more than once.
func (s *Subscription) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.b.mu.Lock()
	s.b.subs--
	s.b.mu.Unlock()
}
