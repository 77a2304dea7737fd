package distcrawl

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientres/internal/core"
)

// The shared study shape: small enough to crawl in seconds, large enough
// that every partition holds several domains.
const (
	testDomains = 40
	testWeeks   = 5
	testSeed    = 7
)

// fakeClock is the coordinator's injectable time source: it advances only
// when the test says so, making lease expiry a deliberate event.
type fakeClock struct {
	base time.Time
	off  atomic.Int64
}

func newFakeClock() *fakeClock { return &fakeClock{base: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time          { return c.base.Add(time.Duration(c.off.Load())) }
func (c *fakeClock) Advance(d time.Duration) { c.off.Add(int64(d)) }

// serialReport lazily computes the serial core.Run reference report — the
// byte-identity target every distributed run is compared against.
var (
	serialOnce   sync.Once
	serialOut    string
	serialRunErr error
)

func serialReport(t *testing.T) string {
	t.Helper()
	serialOnce.Do(func() {
		res, err := core.Run(context.Background(), core.Config{
			Domains: testDomains, Weeks: testWeeks, Seed: testSeed,
			Mode: core.ModeCrawl, Workers: 8, SkipPoC: true,
		})
		if err != nil {
			serialRunErr = err
			return
		}
		serialOut = reportOf(res)
	})
	if serialRunErr != nil {
		t.Fatalf("serial reference: %v", serialRunErr)
	}
	return serialOut
}

func reportOf(res *core.Results) string {
	var sb strings.Builder
	res.WriteReport(&sb)
	return sb.String()
}

// testSpec builds the distributed RunSpec matching the serial reference.
func testSpec(dir string, partitions int) RunSpec {
	return RunSpec{
		Domains: testDomains, Weeks: testWeeks, Seed: testSeed,
		Partitions: partitions, Dir: dir, LeaseTTL: time.Second,
	}
}

// startCoordinator wires a coordinator onto a loopback HTTP server.
func startCoordinator(t *testing.T, spec RunSpec, clk *fakeClock) (*Coordinator, *Client) {
	t.Helper()
	coord, err := NewCoordinator(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord.Now = clk.Now
	coord.Logf = t.Logf
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return coord, &Client{BaseURL: ts.URL}
}

// advanceUntil ticks the fake clock forward in sub-TTL steps — slowly
// enough that healthy workers' real-time heartbeats keep their leases
// alive, fast enough that a silent worker's lease expires within a few
// steps — until cond holds or the deadline passes.
func advanceUntil(t *testing.T, clk *fakeClock, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", timeout)
		}
		clk.Advance(200 * time.Millisecond)
		time.Sleep(50 * time.Millisecond)
	}
}

// waitDone waits for every worker goroutine to return. A worker may
// finish with nil (it saw the run complete) or context.Canceled (the
// test, or the kill injection, canceled it); anything else is a failure.
func waitDone(t *testing.T, errs []chan error) {
	t.Helper()
	for i, ch := range errs {
		select {
		case err := <-ch:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("worker %d: %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("worker %d never exited", i)
		}
	}
}

// The headline proof: a distributed crawl with an injected worker death
// mid-run — lease expiry, partition reassignment, resume at the last
// accepted week — merges to a report byte-identical to the serial
// core.Run reference, across worker counts 1, 2, and 4. With one worker
// the "death" is an injected assignment abort (the lone worker must
// survive to finish the study); with more, the worker process dies for
// real and a survivor absorbs its partition.
func TestDistributedByteIdenticalWithKills(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed crawl matrix is not short")
	}
	want := serialReport(t)
	for _, nw := range []int{1, 2, 4} {
		nw := nw
		t.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4"}[nw], func(t *testing.T) {
			clk := newFakeClock()
			spec := testSpec(t.TempDir(), 3)
			coord, client := startCoordinator(t, spec, clk)

			ctx, cancelAll := context.WithCancel(context.Background())
			defer cancelAll()
			victimCtx, killVictim := context.WithCancel(ctx)
			defer killVictim()

			// The victim dies on the second crawled week of one of its
			// assignments, so the dying epoch always leaves an accepted
			// span behind — reassignment must then produce a second span
			// for that partition.
			var injectOnce, leasedOnce sync.Once
			injected := make(chan struct{})
			victimLeased := make(chan struct{})
			weeksSeen := make(map[int]int)
			var mu sync.Mutex
			victimHook := func(partition, week int) error {
				leasedOnce.Do(func() { close(victimLeased) })
				mu.Lock()
				weeksSeen[partition]++
				n := weeksSeen[partition]
				mu.Unlock()
				if n >= 2 {
					var fired bool
					injectOnce.Do(func() {
						fired = true
						close(injected)
						if nw > 1 {
							killVictim() // the process dies, lease and all
						}
					})
					if fired {
						return ErrInjected
					}
				}
				return nil
			}

			errs := make([]chan error, nw)
			for i := 0; i < nw; i++ {
				w := &Worker{
					ID:           fmt.Sprintf("w%d", i),
					Coord:        client,
					CrawlWorkers: 8,
					Logf:         t.Logf,
				}
				wctx := ctx
				if i == 0 {
					w.OnWeek = victimHook
					if nw > 1 {
						wctx = victimCtx
					}
				}
				ch := make(chan error, 1)
				errs[i] = ch
				go func() { ch <- w.Run(wctx) }()
				if i == 0 {
					// The victim holds a lease before the others compete:
					// four workers race for three partitions, and a victim
					// left without one never fires the injection (1 run in
					// 8 before this wait).
					select {
					case <-victimLeased:
					case <-time.After(60 * time.Second):
						t.Fatal("the victim never crawled a week")
					}
				}
			}

			// Let the run proceed deterministically until the injection,
			// then drive lease expiry so the dead (or aborted) lease frees
			// up and the run can complete.
			select {
			case <-injected:
			case <-time.After(60 * time.Second):
				t.Fatal("injection never fired")
			}
			advanceUntil(t, clk, 60*time.Second, coord.Done)
			cancelAll()
			waitDone(t, errs)

			spans := coord.Spans()
			if len(spans) <= spec.Partitions {
				t.Errorf("no reassignment happened: %d spans over %d partitions", len(spans), spec.Partitions)
			}
			res, err := Merge(spec, spans, MergeOptions{SkipPoC: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportOf(res); got != want {
				t.Errorf("distributed report (%d workers, %d spans) diverges from serial reference", nw, len(spans))
			}
			// The aggregate crawl metrics must account for at least the
			// serial run's work (reassignment re-crawls add more).
			agg := coord.Status().Metrics
			if minAttempts := int64(testDomains * testWeeks); agg.Attempts < minAttempts {
				t.Errorf("aggregate metrics report %d attempts, want >= %d", agg.Attempts, minAttempts)
			}
		})
	}
}

// A coordinator restart rehydrates its journal: leases, epochs, and
// accepted spans survive, a stale epoch stays fenced, and the epoch
// counter never regresses into reuse.
func TestCoordinatorRestartRehydrates(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	spec := RunSpec{Domains: 20, Weeks: 4, Seed: 3, Partitions: 2, Dir: dir, LeaseTTL: time.Second}
	c1, err := NewCoordinator(spec)
	if err != nil {
		t.Fatal(err)
	}
	c1.Now = clk.Now

	lA := c1.Lease("wA")
	if !lA.Assigned || lA.Partition != 0 || lA.Epoch != 1 {
		t.Fatalf("first lease: %+v", lA)
	}
	for week := 0; week < 2; week++ {
		if resp := c1.Commit(CommitRequest{Worker: "wA", Partition: 0, Epoch: lA.Epoch, Week: week}); !resp.OK {
			t.Fatalf("commit week %d: %+v", week, resp)
		}
	}
	lB := c1.Lease("wB")
	if !lB.Assigned || lB.Partition != 1 {
		t.Fatalf("second lease: %+v", lB)
	}
	if resp := c1.Commit(CommitRequest{Worker: "wB", Partition: 1, Epoch: lB.Epoch, Week: 0}); !resp.OK {
		t.Fatalf("commit: %+v", resp)
	}

	// Restart: a new coordinator over the same directory.
	c2, err := NewCoordinator(spec)
	if err != nil {
		t.Fatal(err)
	}
	c2.Now = clk.Now
	st := c2.Status()
	if len(st.Spans) != 2 {
		t.Fatalf("rehydrated %d spans, want 2: %+v", len(st.Spans), st.Spans)
	}
	if st.Spans[0].ToWeek != 2 || st.Spans[1].ToWeek != 1 {
		t.Errorf("rehydrated spans wrong: %+v", st.Spans)
	}
	if st.Assigned[0] != lA.Epoch || st.Assigned[1] != lB.Epoch {
		t.Errorf("rehydrated leases wrong: %+v", st.Assigned)
	}
	// The rehydrated lease is live (the clock has not moved) ...
	if resp := c2.Renew(RenewRequest{Worker: "wA", Partition: 0, Epoch: lA.Epoch}); !resp.OK {
		t.Errorf("rehydrated renew refused: %+v", resp)
	}
	// ... until the clock passes its deadline.
	clk.Advance(2 * spec.LeaseTTL)
	if resp := c2.Renew(RenewRequest{Worker: "wA", Partition: 0, Epoch: lA.Epoch}); resp.OK {
		t.Error("renew of an expired rehydrated lease succeeded")
	}
	// Reassignment resumes at the accepted frontier under a fresh epoch.
	lC := c2.Lease("wC")
	if !lC.Assigned || lC.StartWeek != 2 || lC.Epoch <= lB.Epoch {
		t.Fatalf("post-restart lease: %+v", lC)
	}
	// The dead epoch stays fenced across the restart.
	if resp := c2.Commit(CommitRequest{Worker: "wA", Partition: 0, Epoch: lA.Epoch, Week: 2}); resp.OK {
		t.Error("stale-epoch commit accepted after restart")
	}
	// A state file from a different run is refused.
	other := spec
	other.Seed = 99
	if _, err := NewCoordinator(other); err == nil {
		t.Error("coordinator adopted a different run's state")
	}
}

// Protocol edge cases: duplicate commits are idempotent for the live
// epoch, gaps are refused, and an expired lease fences both renew and
// commit.
func TestCoordinatorProtocolEdges(t *testing.T) {
	clk := newFakeClock()
	spec := RunSpec{Domains: 20, Weeks: 3, Seed: 3, Partitions: 1, Dir: t.TempDir(), LeaseTTL: time.Second}
	c, err := NewCoordinator(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Now = clk.Now

	l := c.Lease("w1")
	if !l.Assigned {
		t.Fatalf("lease: %+v", l)
	}
	if resp := c.Commit(CommitRequest{Worker: "w1", Partition: 0, Epoch: l.Epoch, Week: 1}); resp.OK {
		t.Error("non-contiguous commit accepted")
	}
	if resp := c.Commit(CommitRequest{Worker: "w1", Partition: 0, Epoch: l.Epoch, Week: 0}); !resp.OK {
		t.Fatalf("commit: %+v", resp)
	}
	// Retransmit after a lost response: idempotent OK.
	if resp := c.Commit(CommitRequest{Worker: "w1", Partition: 0, Epoch: l.Epoch, Week: 0}); !resp.OK {
		t.Errorf("duplicate commit refused: %+v", resp)
	}
	// Another worker cannot commit on this lease.
	if resp := c.Commit(CommitRequest{Worker: "w2", Partition: 0, Epoch: l.Epoch, Week: 1}); resp.OK {
		t.Error("foreign worker's commit accepted")
	}
	// Expiry fences everything; the next lease resumes at week 1.
	clk.Advance(2 * spec.LeaseTTL)
	if resp := c.Renew(RenewRequest{Worker: "w1", Partition: 0, Epoch: l.Epoch}); resp.OK {
		t.Error("expired renew succeeded")
	}
	if resp := c.Commit(CommitRequest{Worker: "w1", Partition: 0, Epoch: l.Epoch, Week: 1}); resp.OK {
		t.Error("expired commit accepted")
	}
	l2 := c.Lease("w2")
	if !l2.Assigned || l2.StartWeek != 1 || l2.Epoch == l.Epoch {
		t.Fatalf("reassignment lease: %+v", l2)
	}
	// Finishing the partition marks the run done.
	for week := 1; week < spec.Weeks; week++ {
		resp := c.Commit(CommitRequest{Worker: "w2", Partition: 0, Epoch: l2.Epoch, Week: week})
		if !resp.OK {
			t.Fatalf("commit week %d: %+v", week, resp)
		}
		if wantDone := week == spec.Weeks-1; resp.Done != wantDone {
			t.Errorf("week %d: done = %v, want %v", week, resp.Done, wantDone)
		}
	}
	if !c.Done() {
		t.Error("run not done after final commit")
	}
	if l3 := c.Lease("w3"); !l3.Done || l3.Assigned {
		t.Errorf("lease after completion: %+v", l3)
	}
}
