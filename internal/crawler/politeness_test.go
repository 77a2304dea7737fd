package crawler

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrent acquirers on one host start at least minGap apart. The starts
// are claimed under a lock on the host's schedule, and the test reads each
// start there, where a descheduled goroutine cannot shift it; each Acquire
// must also return no earlier than the start it claimed. The assertion
// allows a small slop.
func TestPolitenessGapEnforcedUnderConcurrency(t *testing.T) {
	const n = 5
	minGap := 40 * time.Millisecond
	p := NewPoliteness(1, minGap)
	// One slot: the acquirer holding it is the last to have claimed a start.
	var mu sync.Mutex
	var claimed time.Time
	p.testHookClaim = func(start time.Time) { mu.Lock(); claimed = start; mu.Unlock() }
	starts := make([]time.Time, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.Acquire(context.Background(), "one.example"); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			starts[i] = claimed
			mu.Unlock()
			if now := time.Now(); now.Before(starts[i]) {
				t.Errorf("Acquire returned %v before its claimed start", starts[i].Sub(now))
			}
			p.Release("one.example")
		}(i)
	}
	wg.Wait()
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	for i := 1; i < n; i++ {
		if gap := starts[i].Sub(starts[i-1]); gap < minGap-10*time.Millisecond {
			t.Errorf("starts %d and %d only %v apart, want ≥ %v", i-1, i, gap, minGap)
		}
	}
}

// The in-flight bound holds: with 2 slots, at most 2 requests are ever
// inside Acquire/Release simultaneously, however many workers pile on.
func TestPolitenessInFlightBound(t *testing.T) {
	p := NewPoliteness(2, 0)
	var inFlight, maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Acquire(context.Background(), "busy.example"); err != nil {
				t.Error(err)
				return
			}
			cur := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			p.Release("busy.example")
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 2 {
		t.Errorf("observed %d concurrent in-flight requests, bound is 2", m)
	}
}

// Politeness is per-host: a large gap on one host never delays another.
func TestPolitenessHostsIndependent(t *testing.T) {
	p := NewPoliteness(1, time.Second)
	start := time.Now()
	for _, host := range []string{"a.example", "b.example", "c.example"} {
		if err := p.Acquire(context.Background(), host); err != nil {
			t.Fatal(err)
		}
		p.Release(host)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("first acquires across 3 hosts took %v; hosts are serializing", elapsed)
	}
}

// A context cancelled while waiting out the gap aborts the wait and returns
// the slot, so later acquirers don't deadlock on a leaked semaphore.
func TestPolitenessAcquireCancelReleasesSlot(t *testing.T) {
	p := NewPoliteness(1, 5*time.Second)
	if err := p.Acquire(context.Background(), "gap.example"); err != nil {
		t.Fatal(err)
	}
	p.Release("gap.example")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx, "gap.example"); err == nil {
		t.Fatal("acquire inside a 5s gap should fail on a 30ms context")
	}
	// The slot must be free again: a third acquirer blocks on the gap, not
	// on a leaked slot — distinguish by cancelling and checking the error
	// arrives promptly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	done := make(chan error, 1)
	go func() { done <- p.Acquire(ctx2, "gap.example") }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected context error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire did not honor its context; slot likely leaked")
	}
}
