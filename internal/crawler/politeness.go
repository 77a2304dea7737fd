package crawler

import (
	"context"
	"sync"
	"time"
)

// Politeness enforces per-host request discipline: at most maxInFlight
// concurrent requests to any one host, and at least minGap between
// consecutive request starts on a host. Worker-pool concurrency stays
// unconstrained across hosts — only same-host pressure queues.
type Politeness struct {
	slots  int
	minGap time.Duration

	mu    sync.Mutex
	hosts map[string]*hostGate

	// testHookClaim, when set, is called with each start Acquire claims on
	// a host's schedule, under the host's lock.
	testHookClaim func(start time.Time)
}

type hostGate struct {
	sem chan struct{}
	mu  sync.Mutex
	// next is the earliest instant the host's next request may start; each
	// admitted request pushes it minGap further.
	next time.Time
}

// NewPoliteness builds a limiter. maxInFlight below 1 becomes 1; a
// non-positive minGap disables gap enforcement (the in-flight bound still
// applies).
func NewPoliteness(maxInFlight int, minGap time.Duration) *Politeness {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if minGap < 0 {
		minGap = 0
	}
	return &Politeness{slots: maxInFlight, minGap: minGap, hosts: make(map[string]*hostGate)}
}

func (p *Politeness) gate(host string) *hostGate {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.hosts[host]
	if g == nil {
		g = &hostGate{sem: make(chan struct{}, p.slots)}
		p.hosts[host] = g
	}
	return g
}

// Acquire blocks until host has a free in-flight slot and its inter-request
// gap has elapsed, or ctx is done. Every successful Acquire must be paired
// with a Release.
func (p *Politeness) Acquire(ctx context.Context, host string) error {
	g := p.gate(host)
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if p.minGap <= 0 {
		return nil
	}
	// Claim the next start on the host's schedule, then sleep to it. The
	// claim happens under the lock so concurrent acquirers get distinct,
	// minGap-spaced starts; the sleep happens outside it.
	g.mu.Lock()
	now := time.Now()
	start := g.next
	if start.Before(now) {
		start = now
	}
	g.next = start.Add(p.minGap)
	if p.testHookClaim != nil {
		p.testHookClaim(start)
	}
	g.mu.Unlock()
	if wait := time.Until(start); wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			<-g.sem
			return ctx.Err()
		}
	}
	return nil
}

// Release returns host's in-flight slot.
func (p *Politeness) Release(host string) {
	<-p.gate(host).sem
}
