package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestBrokerOrderedDelivery: a subscriber sees every published event in
// order with contiguous sequence numbers and no reported loss.
func TestBrokerOrderedDelivery(t *testing.T) {
	b := NewBroker(16)
	b.Open("j1")
	sub, err := b.Subscribe("j1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 10; i++ {
		b.Publish("j1", "progress", []byte(fmt.Sprintf("%d", i)))
	}
	for i := 0; i < 10; i++ {
		ev, lost, err := sub.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lost != 0 {
			t.Fatalf("event %d: unexpected loss %d", i, lost)
		}
		if ev.Seq != uint64(i+1) || string(ev.Data) != fmt.Sprintf("%d", i) {
			t.Fatalf("event %d: got seq=%d data=%q", i, ev.Seq, ev.Data)
		}
	}
}

// TestBrokerGapOnOverflow: a subscriber that falls behind a full ring gets
// the retained tail plus an exact count of the evicted events.
func TestBrokerGapOnOverflow(t *testing.T) {
	b := NewBroker(4)
	b.Open("j")
	sub, err := b.Subscribe("j", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 10; i++ { // seqs 1..10; ring keeps 7..10
		b.Publish("j", "e", nil)
	}
	ev, lost, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lost != 6 || ev.Seq != 7 {
		t.Fatalf("got lost=%d seq=%d, want lost=6 seq=7", lost, ev.Seq)
	}
	for want := uint64(8); want <= 10; want++ {
		ev, lost, err := sub.Next(context.Background())
		if err != nil || lost != 0 || ev.Seq != want {
			t.Fatalf("got seq=%d lost=%d err=%v, want seq=%d", ev.Seq, lost, err, want)
		}
	}
}

// TestBrokerRingGrowsOnDemand: a topic holding a few events keeps a few
// slots, not the broker's whole bound; a full ring stops growing and wraps.
func TestBrokerRingGrowsOnDemand(t *testing.T) {
	b := NewBroker(0) // DefaultRingEvents
	b.Open("hit")
	b.Publish("hit", "verdict", nil)
	if n := cap(b.topic("hit").ring); n >= DefaultRingEvents {
		t.Errorf("a one-event topic holds %d slots, want fewer than %d", n, DefaultRingEvents)
	}
	for i := 0; i < 3*DefaultRingEvents; i++ {
		b.Publish("busy", "e", nil)
	}
	if n := len(b.topic("busy").ring); n != DefaultRingEvents {
		t.Errorf("a full topic holds %d events, want the bound %d", n, DefaultRingEvents)
	}
}

// TestBrokerResume: subscribing with a Last-Event-ID cursor replays only
// later events; a cursor past the newest event clamps instead of hanging.
func TestBrokerResume(t *testing.T) {
	b := NewBroker(16)
	for i := 0; i < 5; i++ {
		b.Publish("j", "e", nil)
	}
	sub, err := b.Subscribe("j", 3)
	if err != nil {
		t.Fatal(err)
	}
	ev, lost, err := sub.Next(context.Background())
	if err != nil || lost != 0 || ev.Seq != 4 {
		t.Fatalf("resume after 3: got seq=%d lost=%d err=%v", ev.Seq, lost, err)
	}
	sub.Close()

	// A bogus future cursor (previous server incarnation) clamps to the
	// current head and delivers the next published event.
	sub2, err := b.Subscribe("j", 999)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	done := make(chan StreamEvent, 1)
	go func() {
		ev, _, err := sub2.Next(context.Background())
		if err == nil {
			done <- ev
		}
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("j", "late", nil)
	select {
	case ev := <-done:
		if ev.Type != "late" || ev.Seq != 6 {
			t.Fatalf("clamped cursor got %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("clamped subscriber never woke")
	}
}

// TestBrokerCloseDrains: a closed topic still serves its retained ring,
// then reports ErrStreamClosed; publishing after close is a no-op.
func TestBrokerCloseDrains(t *testing.T) {
	b := NewBroker(8)
	b.Publish("j", "a", nil)
	b.Publish("j", "verdict", nil)
	b.CloseTopic("j")
	if seq := b.Publish("j", "late", nil); seq != 0 {
		t.Fatalf("publish after close returned seq %d, want 0", seq)
	}
	sub, err := b.Subscribe("j", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := sub.Next(context.Background()); err != nil {
			t.Fatalf("drain event %d: %v", i, err)
		}
	}
	if _, _, err := sub.Next(context.Background()); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("got %v, want ErrStreamClosed", err)
	}
}

// TestBrokerBlockedSubscriberWakes: Next parked on an empty topic wakes on
// publish and on close, and honors context cancellation.
func TestBrokerBlockedSubscriberWakes(t *testing.T) {
	b := NewBroker(8)
	b.Open("j")
	sub, err := b.Subscribe("j", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}

	got := make(chan error, 1)
	go func() {
		_, _, err := sub.Next(context.Background())
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Publish("j", "e", nil)
	if err := <-got; err != nil {
		t.Fatalf("publish wake: %v", err)
	}

	go func() {
		_, _, err := sub.Next(context.Background())
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.CloseAll()
	if err := <-got; !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("close wake: got %v, want ErrStreamClosed", err)
	}
}

// TestBrokerSubscriberAccounting: Subscribers tracks open subscriptions and
// Close is idempotent.
func TestBrokerSubscriberAccounting(t *testing.T) {
	b := NewBroker(8)
	b.Open("j")
	s1, _ := b.Subscribe("j", 0)
	s2, _ := b.Subscribe("j", 0)
	if n := b.Subscribers(); n != 2 {
		t.Fatalf("subscribers=%d, want 2", n)
	}
	s1.Close()
	s1.Close() // idempotent
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("subscribers=%d after close, want 1", n)
	}
	s2.Close()
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("subscribers=%d after both closed, want 0", n)
	}
	if _, err := b.Subscribe("nope", 0); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("unknown topic: got %v, want ErrNoTopic", err)
	}
}

// TestBrokerConcurrent: many publishers and subscribers race under -race;
// every subscriber observes strictly increasing sequence numbers and
// accounted losses (delivered + lost spans the full range).
func TestBrokerConcurrent(t *testing.T) {
	b := NewBroker(32)
	b.Open("j")
	const publishers, events, readers = 4, 200, 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		sub, err := b.Subscribe("j", 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			var prev, seen, lostTotal uint64
			for {
				ev, lost, err := sub.Next(context.Background())
				if errors.Is(err, ErrStreamClosed) {
					break
				}
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if ev.Seq <= prev {
					t.Errorf("sequence not increasing: %d after %d", ev.Seq, prev)
					return
				}
				if ev.Seq != prev+lost+1 {
					t.Errorf("unaccounted gap: seq %d after %d with lost=%d", ev.Seq, prev, lost)
					return
				}
				prev, seen, lostTotal = ev.Seq, seen+1, lostTotal+lost
			}
			if seen+lostTotal != publishers*events {
				t.Errorf("delivered %d + lost %d != published %d", seen, lostTotal, publishers*events)
			}
		}()
	}
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for i := 0; i < events; i++ {
				b.Publish("j", "e", nil)
			}
		}()
	}
	pubWG.Wait()
	b.CloseTopic("j")
	wg.Wait()
}

// TestSpansQuantile: spans land in the stage-labeled histogram and the
// interpolated quantile estimate is sane.
func TestSpansQuantile(t *testing.T) {
	reg := NewRegistry()
	sp := reg.Spans("test_stage_seconds", "test")
	for i := 0; i < 100; i++ {
		sp.Observe("engine-run", 2*time.Millisecond)
	}
	sp.Observe("engine-run", 2*time.Second)
	if n := sp.Count("engine-run"); n != 101 {
		t.Fatalf("count=%d, want 101", n)
	}
	p50 := sp.Quantile("engine-run", 0.50)
	if p50 < 0.001 || p50 > 0.005 {
		t.Fatalf("p50=%v, want within the 2ms bucket range", p50)
	}
	p99 := sp.Quantile("engine-run", 0.995)
	if p99 < 1 || p99 > 2.5 {
		t.Fatalf("p99.5=%v, want within the 2s bucket range", p99)
	}
	if !math.IsNaN(sp.Quantile("no-such-stage", 0.5)) {
		t.Fatal("quantile of an empty stage should be NaN")
	}

	span := sp.Start("persist")
	time.Sleep(time.Millisecond)
	if d := span.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	if n := sp.Count("persist"); n != 1 {
		t.Fatalf("persist count=%d, want 1", n)
	}
}
