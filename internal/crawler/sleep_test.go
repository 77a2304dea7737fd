package crawler

// The Sleep seam: the crawler decides which retry waits how long (Backoff),
// the seam decides how the wait is spent. A replayed crawl mounts one that
// does not wait; these tests pin what any mounted sleeper may rely on.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestSleepSeamReceivesBackoffSchedule: the delays handed to Config.Sleep
// are exactly Backoff.Delay(domain, attempt) for each retry, in order, and
// the time spent inside the seam is what MetricsSnapshot.Waited reports.
func TestSleepSeamReceivesBackoffSchedule(t *testing.T) {
	base, attempts := startRefusingServer(t)
	backoff := Backoff{Base: 40 * time.Millisecond, Seed: 17}
	var mu sync.Mutex
	var got []time.Duration
	cr := New(Config{BaseURL: base, Retries: 3, Timeout: 2 * time.Second, Backoff: backoff,
		Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			got = append(got, d)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond) // a wait the counter must see
			return ctx.Err()
		}})
	page := cr.Fetch(context.Background(), 4, "dead.example")
	if page.Err == nil {
		t.Fatal("fetch against a refusing server succeeded")
	}
	want := []time.Duration{backoff.Delay("dead.example", 1), backoff.Delay("dead.example", 2), backoff.Delay("dead.example", 3)}
	if len(got) != len(want) {
		t.Fatalf("sleeper saw %d delays %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("retry %d: sleeper asked to wait %v, Backoff.Delay says %v", i+1, got[i], want[i])
		}
	}
	if n := attempts.Load(); n != 4 {
		t.Errorf("%d connection attempts, want 4: a sleeper that does not wait must not change the retry count", n)
	}
	m := cr.Metrics()
	if m.Retries != 3 {
		t.Errorf("Retries = %d, want 3", m.Retries)
	}
	if m.Waited < 6*time.Millisecond || m.Waited > time.Second {
		t.Errorf("Waited = %v, want the ~6ms the sleeper actually spent (not the %v it was asked for)", m.Waited, want[0]+want[1]+want[2])
	}
}

// TestSleepSeamErrorEndsFetch: a sleeper that reports cancellation ends the
// fetch with that error, without another attempt — the contract that makes
// a cancelled zero-delay replay stop retrying as a live crawl does.
func TestSleepSeamErrorEndsFetch(t *testing.T) {
	base, attempts := startRefusingServer(t)
	cr := New(Config{BaseURL: base, Retries: 5, Timeout: 2 * time.Second,
		Sleep: func(context.Context, time.Duration) error { return context.Canceled }})
	page := cr.Fetch(context.Background(), 0, "dead.example")
	if !errors.Is(page.Err, context.Canceled) {
		t.Fatalf("page.Err = %v, want context.Canceled from the sleeper", page.Err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("%d connection attempts after the sleeper gave up, want 1", n)
	}
}

// TestDefaultSleepWaitsTheBackoff: with no sleeper mounted the wait is real,
// and Waited accounts for it.
func TestDefaultSleepWaitsTheBackoff(t *testing.T) {
	base, _ := startRefusingServer(t)
	backoff := Backoff{Base: 20 * time.Millisecond, Seed: 1}
	cr := New(Config{BaseURL: base, Timeout: 2 * time.Second, Backoff: backoff})
	cr.Fetch(context.Background(), 0, "dead.example")
	if m, want := cr.Metrics(), backoff.Delay("dead.example", 1); m.Waited < want {
		t.Errorf("Waited = %v, want at least the %v backoff of the one retry", m.Waited, want)
	}
}
