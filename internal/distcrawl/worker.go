package distcrawl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"clientres/internal/core"
	"clientres/internal/crawler"
	"clientres/internal/store"
	"clientres/internal/webgen"
	"clientres/internal/webserver"
)

// Worker runs crawl assignments against a coordinator: register, lease a
// partition, crawl it through the collection engine (core.CrawlPartition)
// — whose week barrier commits each week to the worker's own generation
// store first, then to the coordinator — while a heartbeat goroutine renews
// the lease. A refused renewal or commit means the epoch is fenced: the
// worker aborts the assignment (keeping the accepted prefix on disk) and
// leases anew.
type Worker struct {
	// ID names the worker in the protocol (and logs).
	ID string
	// Coord is the coordinator client.
	Coord *Client
	// CrawlWorkers bounds per-assignment crawl concurrency (0 = the
	// crawler's default, 64).
	CrawlWorkers int
	// FetchTimeout bounds one whole page fetch (crawler.Config.FetchTimeout)
	// so a hung host cannot stall the worker past its lease.
	FetchTimeout time.Duration
	// Logf, when set, receives one line per assignment event.
	Logf func(format string, args ...any)

	// HeartbeatOff, while true, blackholes lease renewals (accepted
	// commits still renew server-side) — the fault-injection switch for
	// the partitioned-worker drills.
	HeartbeatOff atomic.Bool
	// OnWeek, when set, runs after a week is crawled and before it is
	// committed. Returning an error aborts the assignment at that point —
	// the crash injection seam; a stall injection blocks inside the hook.
	OnWeek func(partition, week int) error
	// OnFenced, when set, observes every protocol-side fencing rejection
	// (renew or commit) — the zombie drills assert through it.
	OnFenced func(partition int, epoch int64, week int, reason string)
}

// ErrInjected marks a fault-injection abort (tests').
var ErrInjected = errors.New("distcrawl: injected fault")

// errAssignment wraps failures that end one assignment but not the
// worker: fencing, injected faults, a mid-week lease loss.
type errAssignment struct{ err error }

func (e errAssignment) Error() string { return e.err.Error() }
func (e errAssignment) Unwrap() error { return e.err }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) fenced(partition int, epoch int64, week int, reason string) {
	if w.OnFenced != nil {
		w.OnFenced(partition, epoch, week, reason)
	}
}

// Run registers, then serves lease assignments until the coordinator
// reports the run done or ctx is canceled. The synthetic ecosystem is
// regenerated from the spec's seed and served on a private loopback
// listener — every worker crawls an identical web, which is what makes
// the merged dataset equal a serial crawl's.
func (w *Worker) Run(ctx context.Context) error {
	spec, err := w.Coord.Register(w.ID)
	if err != nil {
		return err
	}
	eco := webgen.New(webgen.Config{Domains: spec.Domains, Weeks: spec.Weeks, Seed: spec.Seed, Bundling: spec.Bundling})

	baseURL, stop, err := webserver.New(eco).Start()
	if err != nil {
		return fmt.Errorf("distcrawl: %w", err)
	}
	defer stop()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.Coord.Lease(w.ID)
		if err != nil {
			return err
		}
		if resp.Done {
			w.logf("%s: run complete", w.ID)
			return nil
		}
		if !resp.Assigned {
			// Everything is leased out; poll again shortly.
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		err = w.runAssignment(ctx, spec, resp, eco, baseURL)
		var ae errAssignment
		switch {
		case err == nil:
		case errors.As(err, &ae):
			w.logf("%s: assignment partition %d epoch %d aborted: %v", w.ID, resp.Partition, resp.Epoch, err)
		default:
			return err
		}
	}
}

// runAssignment crawls one leased partition from its start week through
// core.CrawlPartition into the epoch's generation store (an aborted one
// keeps its committed prefix until the merge seals it). Its week barrier
// commits store first: a week is durably on disk before the coordinator
// hears of it, so every accepted span is replayable; the converse —
// store-committed but protocol-refused — is surplus the merge's week
// filter discards.
func (w *Worker) runAssignment(ctx context.Context, spec RunSpec, l LeaseResponse, eco *webgen.Ecosystem, baseURL string) error {
	w.logf("%s: leased partition %d epoch %d weeks [%d,%d)", w.ID, l.Partition, l.Epoch, l.StartWeek, spec.Weeks)
	dir := GenDir(spec.Dir, l.Partition, l.Epoch)
	run := store.RunID{
		Seed: spec.Seed, Domains: spec.Domains, Weeks: spec.Weeks,
		Mode: int(core.ModeCrawl), Partition: l.Partition, Epoch: l.Epoch,
	}
	sw, err := store.CreateSegmentedWith(dir, 1, store.SegmentedOptions{Checkpoint: true, Run: run})
	if err != nil {
		return err
	}

	// The assignment context dies with the lease: the heartbeat goroutine
	// cancels it the moment a renewal is refused, unwinding the crawl
	// mid-week instead of finishing work nobody will accept.
	actx, cancel := context.WithCancel(ctx)
	var lost atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-actx.Done():
				return
			case <-t.C:
			}
			if w.HeartbeatOff.Load() {
				continue
			}
			resp, err := w.Coord.Renew(RenewRequest{Worker: w.ID, Partition: l.Partition, Epoch: l.Epoch})
			if err != nil {
				continue // transient; the lease survives until its TTL
			}
			if !resp.OK {
				w.fenced(l.Partition, l.Epoch, -1, resp.Reason)
				lost.Store(true)
				cancel()
				return
			}
		}
	}()

	commit := func(week int, m crawler.MetricsSnapshot) error {
		if w.OnWeek != nil {
			if err := w.OnWeek(l.Partition, week); err != nil {
				return errAssignment{err}
			}
		}
		if err := sw.CommitWeek(week); err != nil {
			return err
		}
		resp, err := w.Coord.Commit(CommitRequest{Worker: w.ID, Partition: l.Partition, Epoch: l.Epoch, Week: week, Metrics: m})
		if err != nil {
			return errAssignment{err}
		}
		if !resp.OK {
			// Fenced: our store commit for this week is surplus — it lies
			// outside the span the coordinator accepted, and the merge's
			// week filter will never read it.
			w.fenced(l.Partition, l.Epoch, week, resp.Reason)
			return errAssignment{fmt.Errorf("distcrawl: commit fenced: %s", resp.Reason)}
		}
		w.logf("%s: partition %d epoch %d week %d committed", w.ID, l.Partition, l.Epoch, week)
		return nil
	}
	cfg := core.Config{Weeks: spec.Weeks, Seed: spec.Seed, BundleScan: spec.BundleScan,
		Workers: w.CrawlWorkers, FetchTimeout: w.FetchTimeout}
	err = core.CrawlPartition(actx, cfg, eco, l.Partition, spec.Partitions, l.StartWeek, baseURL, sw, commit)
	cancel()
	<-hbDone
	if lost.Load() {
		return errAssignment{fmt.Errorf("distcrawl: lease lost (fenced)")}
	}
	return err
}
