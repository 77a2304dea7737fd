package distcrawl

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clientres/internal/store"
)

// The zombie drill, end to end: a worker with its heartbeat blackholed
// stalls mid-assignment, its lease expires, the partition is reassigned,
// and the zombie then wakes and finishes the week — committing it to its
// OWN generation store (which succeeds: nobody shares those files) but
// getting the protocol commit fenced by epoch. The zombie's surplus
// store commit is provably excluded: its accepted span ends where the
// coordinator stopped accepting, and the merged report is byte-identical
// to the serial reference regardless.
func TestZombieWorkerFencedAndExcluded(t *testing.T) {
	if testing.Short() {
		t.Skip("zombie drill is not short")
	}
	want := serialReport(t)
	clk := newFakeClock()
	spec := testSpec(t.TempDir(), 2)
	coord, client := startCoordinator(t, spec, clk)

	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()

	const stallWeek = 1
	stalled := make(chan struct{}) // zombie reached the stall point
	release := make(chan struct{}) // test lets the zombie continue
	var stallOnce sync.Once

	type fencing struct {
		partition int
		epoch     int64
		week      int
		reason    string
	}
	var mu sync.Mutex
	var fenced []fencing

	zombie := &Worker{ID: "zombie", Coord: client, CrawlWorkers: 8, Logf: t.Logf}
	zombie.HeartbeatOff.Store(true) // the blackhole: only commits ever renew
	var zombiePart atomic.Int64
	zombie.OnWeek = func(partition, week int) error {
		if week == stallWeek {
			stallOnce.Do(func() {
				zombiePart.Store(int64(partition))
				close(stalled)
				<-release // lease expires underneath us while we "hang"
			})
		}
		return nil
	}
	zombie.OnFenced = func(partition int, epoch int64, week int, reason string) {
		mu.Lock()
		fenced = append(fenced, fencing{partition, epoch, week, reason})
		mu.Unlock()
	}
	healthy := &Worker{ID: "healthy", Coord: client, CrawlWorkers: 8, Logf: t.Logf}

	errs := []chan error{make(chan error, 1), make(chan error, 1)}
	go func() { errs[0] <- zombie.Run(ctx) }()
	go func() { errs[1] <- healthy.Run(ctx) }()

	select {
	case <-stalled:
	case <-time.After(60 * time.Second):
		t.Fatal("zombie never reached the stall point")
	}
	part := int(zombiePart.Load())
	// The zombie holds the lease for part right now; record its epoch,
	// then expire it and wait for the healthy worker to take over and
	// commit the stalled week under a new epoch.
	st := coord.Status()
	zombieEpoch, held := st.Assigned[part]
	if !held {
		t.Fatalf("zombie holds no lease on partition %d: %+v", part, st.Assigned)
	}
	advanceUntil(t, clk, 60*time.Second, func() bool {
		for _, sp := range coord.Spans() {
			if sp.Partition == part && sp.Epoch != zombieEpoch && sp.ToWeek > stallWeek {
				return true
			}
		}
		return false
	})
	close(release)
	advanceUntil(t, clk, 60*time.Second, coord.Done)
	cancelAll()
	waitDone(t, errs)

	// The zombie observed its fencing: a rejected commit (or renewal)
	// for the stalled assignment.
	mu.Lock()
	sawCommitFence := false
	for _, f := range fenced {
		if f.partition == part && f.epoch == zombieEpoch && f.week == stallWeek {
			sawCommitFence = true
		}
	}
	mu.Unlock()
	if !sawCommitFence {
		t.Errorf("zombie's week-%d commit was never fenced: %+v", stallWeek, fenced)
	}

	// Provably fenced on disk: the zombie's generation store-committed
	// through the stalled week (its own files — that write succeeds), but
	// the coordinator's accepted span for that epoch stops before it.
	ck, err := store.ReadCheckpoint(GenDir(spec.Dir, part, zombieEpoch))
	if err != nil {
		t.Fatal(err)
	}
	if ck.CommittedWeeks != stallWeek+1 {
		t.Errorf("zombie generation committed %d weeks, want %d (through the fenced week)", ck.CommittedWeeks, stallWeek+1)
	}
	zombieSpan := Span{ToWeek: -1}
	for _, sp := range coord.Spans() {
		if sp.Partition == part && sp.Epoch == zombieEpoch {
			zombieSpan = sp
		}
	}
	if zombieSpan.ToWeek == -1 {
		t.Fatal("zombie epoch left no accepted span")
	}
	if zombieSpan.ToWeek != stallWeek {
		t.Errorf("zombie accepted span ends at %d, want %d — the surplus commit leaked", zombieSpan.ToWeek, stallWeek)
	}

	// And the headline invariant survives the whole drill.
	res, err := Merge(spec, coord.Spans(), MergeOptions{SkipPoC: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportOf(res); got != want {
		t.Error("report with a fenced zombie diverges from the serial reference")
	}
}
