// The collection engine: however a study's observations arrive, they reach
// the collectors through collect, the week loop of a running study, or
// replay, the decoder of stored ones. Both route by store.ShardOf into n
// shards; a serial run is the same engine with n = 1. See DESIGN.md §17.

package core

import (
	"context"
	"fmt"
	"sync"

	"clientres/internal/analysis"
	"clientres/internal/store"
)

// shard is one domain-hash partition of a study's collectors. All of a
// domain's observations go to one shard, in week order, which is what the
// stateful collectors need and what makes merging shards exact.
type shard struct {
	res    *Results
	runner *analysis.Runner
}

func newShards(weeks, domains, n int) []*shard {
	shards := make([]*shard, n)
	for s := range shards {
		res := newResults(weeks, domains)
		shards[s] = &shard{res: res, runner: res.runner()}
	}
	return shards
}

// bareShards returns n shards without collectors: the write side of a
// study (WriteStore, CrawlPartition), analysed when its store is replayed.
func bareShards(n int) []*shard {
	shards := make([]*shard, n)
	for s := range shards {
		shards[s] = &shard{runner: analysis.NewRunner()}
	}
	return shards
}

// mergeShards folds every shard's collectors into the first shard's
// Results and returns it.
func mergeShards(shards []*shard) *Results {
	res := shards[0].res
	for _, sh := range shards[1:] {
		res.Merge(sh.res)
	}
	return res
}

// source is where a running study's work comes from. feed hands the week's
// items to the shards that own their domains (store.ShardOf), from a single
// goroutine, and returns only after the last one; observe, on the owning
// shard's worker, reduces an item to its observations — so the expensive
// half (generating truth, fingerprinting a page) runs in parallel across
// shards. Live, recorded and replayed crawls are one source: they differ in
// the crawler's transport.
type source[T any] struct {
	// did words the per-week progress line.
	did     string
	feed    func(ctx context.Context, week int, emit func(shard int, item T)) error
	observe func(shard int, item T, yield func(store.Observation))
}

// sink is the store a running study writes: a *store.SegmentedWriter, or in
// the engine's tests one that fails.
type sink interface {
	Write(store.Observation) error
	CommitWeek(week int) error
	Close() error
	Abort() error
}

// collect runs weeks [start, cfg.Weeks) of a study: one worker per shard
// observes the shard's items into its collectors and writes them to the
// store. Every week ends at the same barrier: drain the shards, surface
// their errors, and, when commit is set, commit the week. What a commit is
// belongs to the caller — the store's CommitWeek; a recording's bundle,
// then its store; a distributed worker's generation store, then its
// coordinator — and an error from it stops the run at that week.
func collect[T any](ctx context.Context, cfg Config, shards []*shard, start int, src source[T], writer sink, commit func(week int) error) error {
	chans := make([]chan T, len(shards))
	errs := make([]error, len(shards))
	// pending counts items handed to a channel and not yet processed. feed
	// returning does not mean the week's observations reached the store;
	// waiting on pending does, and synchronizes the workers' errs writes.
	var pending, workers sync.WaitGroup
	for s := range shards {
		// Items arrive in an order that interleaves the shards unevenly; the
		// buffer lets the feeder run ahead of a momentarily busy shard
		// instead of idling the others. 128 is the sharded crawl's
		// long-standing size, not a tuned one.
		chans[s] = make(chan T, 128)
		workers.Add(1)
		go func(s int) {
			defer workers.Done()
			yield := func(obs store.Observation) {
				// After a failure the shard only drains, so that the feeder
				// never blocks.
				if errs[s] != nil {
					return
				}
				shards[s].runner.Observe(obs)
				if writer != nil {
					errs[s] = writer.Write(obs)
				}
			}
			for item := range chans[s] {
				src.observe(s, item, yield)
				pending.Done()
			}
		}(s)
	}
	err := func() error {
		for w := start; w < cfg.Weeks; w++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Weeks are fed one after another, so each domain's items enter
			// its shard's channel in week-ascending order.
			err := src.feed(ctx, w, func(s int, item T) {
				pending.Add(1)
				chans[s] <- item
			})
			if err != nil {
				return err
			}
			pending.Wait()
			cfg.Progress("week %3d/%d "+src.did, w+1, cfg.Weeks)
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			if commit == nil {
				continue
			}
			if err := commit(w); err != nil {
				return err
			}
			cfg.Progress("week %3d/%d committed", w+1, cfg.Weeks)
		}
		return nil
	}()
	for _, c := range chans {
		close(c)
	}
	workers.Wait()
	return err
}

// replayUnit is one gzip stream of a stored dataset — one segment of a
// store, or a single-file archive — and the weeks of it that belong to the
// dataset.
type replayUnit struct {
	path     string
	from, to int // half-open
}

// replay decodes stored observations into the shards' collectors. Lanes
// decode concurrently, one goroutine each, a lane's units one after another
// — so a lane must hold every unit that carries a given domain, in week
// order — and every lane set is a store.ShardOf partition of the domains
// (a store's segments, a distributed run's partitions, or the one lane of
// a single file).
//
// When there are as many lanes as shards the two partitions are the same
// one: lane l's decoder feeds shard l's collectors directly, consuming the
// decoder's reused buffers before the callback returns, and an observation
// that hashes elsewhere is an error — the store is not the partition it
// claims. Otherwise each observation crosses to its shard's collector
// goroutine over a channel, which retains it past the callback, so it is
// cloned. (A per-shard lock in place of both was measured 23–37 % slower
// on misaligned stores; DESIGN.md §17.)
//
// An observation whose week falls outside its unit's range is skipped, or,
// when surplus is set, refused with surplus's error. replay returns the
// number of observations each lane contributed, for the caller's
// exact-count check.
func replay(shards []*shard, lanes [][]replayUnit, surplus func(lane int, obs store.Observation) error) ([]int, error) {
	aligned := len(lanes) == len(shards)
	var chans []chan store.Observation
	var collectors sync.WaitGroup
	if !aligned {
		chans = make([]chan store.Observation, len(shards))
		for s := range shards {
			// Deep enough that a decoder rarely waits on a collector that
			// is mid-observation; the misaligned replay's long-standing
			// size, not a tuned one.
			chans[s] = make(chan store.Observation, 256)
			collectors.Add(1)
			go func(s int) {
				defer collectors.Done()
				for obs := range chans[s] {
					shards[s].runner.Observe(obs)
				}
			}(s)
		}
	}
	counts := make([]int, len(lanes))
	errs := make([]error, len(lanes))
	var decoders sync.WaitGroup
	for l := range lanes {
		decoders.Add(1)
		go func(l int) {
			defer decoders.Done()
			n := 0
			for _, u := range lanes[l] {
				errs[l] = store.ForEach(u.path, func(obs store.Observation) error {
					if obs.Week < u.from || obs.Week >= u.to {
						if surplus != nil {
							return surplus(l, obs)
						}
						return nil
					}
					s := store.ShardOf(obs.Domain, len(shards))
					switch {
					case !aligned:
						chans[s] <- obs.Clone()
					case s != l:
						return fmt.Errorf("core: %s: domain %q belongs to partition %d of %d, not %d",
							u.path, obs.Domain, s, len(shards), l)
					default:
						shards[l].runner.Observe(obs)
					}
					n++
					return nil
				})
				if errs[l] != nil {
					return
				}
			}
			counts[l] = n
		}(l)
	}
	decoders.Wait()
	for _, c := range chans {
		close(c)
	}
	collectors.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return counts, nil
}
