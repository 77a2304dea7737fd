// Merged replay from N worker segment sets: the analysis side of the
// distributed crawl plane (internal/distcrawl).
//
// A distributed run leaves, per domain partition, an ordered sequence of
// generation stores — one per lease epoch that had week-commits accepted
// by the coordinator. Each generation is an ordinary checkpointed
// segmented store holding a contiguous week range of one partition's
// domains. MergeWorkerStores replays those spans into per-partition
// collector sets and merges them exactly like a sharded run merges its
// shards (the partition function is the same store.ShardOf hash), so the
// merged report is byte-identical to a serial core.Run of the same
// configuration — the distributed plane's headline proof.
//
// The week filter is the merge half of the fencing story: a zombie worker
// may have store-committed weeks in its own generation after its lease
// expired, but the coordinator never accepted them, so they fall outside
// the generation's span and are excluded here. What the coordinator
// committed is the dataset; nothing else can leak in.

package core

import (
	"fmt"
	"sort"

	"clientres/internal/poclab"
	"clientres/internal/store"
)

// ReplaySpan identifies one worker generation store and the committed
// week range [FromWeek, ToWeek) it contributes to the merged dataset.
// Observations outside the range — a fenced zombie's uncommitted surplus,
// or a week the coordinator reassigned before accepting — are skipped.
type ReplaySpan struct {
	// Path is the generation's segmented store directory (sealed: it must
	// carry a manifest; distcrawl seals crashed generations before merge).
	Path string
	// Partition is the domain-hash partition the store must hold —
	// store.ShardOf(domain, Partitions) for every observation in it.
	Partition int
	// FromWeek and ToWeek bound the committed weeks, half-open.
	FromWeek, ToWeek int
}

// MergeConfig parameterizes MergeWorkerStores.
type MergeConfig struct {
	// Weeks, Domains describe the study shape (as in Config).
	Weeks, Domains int
	// Partitions is the domain-hash partition count of the distributed
	// run — the modulus every span's observations are validated against.
	Partitions int
	// DomainsPerPartition is required, one count per partition: partition p
	// must replay Weeks × DomainsPerPartition[p] observations (its spans
	// cover every week once, and every crawled (domain, week) yields
	// exactly one observation, failures included).
	DomainsPerPartition []int
	// SkipPoC leaves Results.Findings nil, so the report carries no
	// version-validation findings (reports of runs that also skipped them
	// stay comparable); otherwise they come from poclab.Findings.
	SkipPoC bool
}

// MergeWorkerStores replays every partition's generation spans —
// week-filtered, partition-validated — into per-partition collector sets
// and merges them into one Results, exactly as a sharded in-process run
// would. Partitions replay concurrently (they are domain-disjoint by the
// ShardOf invariant); within a partition, spans replay in ascending week
// order so the stateful collectors see each domain's weeks in order.
func MergeWorkerStores(spans []ReplaySpan, cfg MergeConfig) (*Results, error) {
	if cfg.Partitions < 1 || len(cfg.DomainsPerPartition) != cfg.Partitions {
		return nil, fmt.Errorf("core: merge: %d partitions, %d per-partition domain counts",
			cfg.Partitions, len(cfg.DomainsPerPartition))
	}
	byPart := make([][]ReplaySpan, cfg.Partitions)
	for _, sp := range spans {
		if sp.Partition < 0 || sp.Partition >= cfg.Partitions {
			return nil, fmt.Errorf("core: merge: span %s names partition %d of %d", sp.Path, sp.Partition, cfg.Partitions)
		}
		if sp.FromWeek < 0 || sp.ToWeek > cfg.Weeks || sp.FromWeek >= sp.ToWeek {
			return nil, fmt.Errorf("core: merge: span %s has week range [%d,%d) of %d weeks",
				sp.Path, sp.FromWeek, sp.ToWeek, cfg.Weeks)
		}
		byPart[sp.Partition] = append(byPart[sp.Partition], sp)
	}
	// Every partition must be covered [0, Weeks) by contiguous spans: a
	// gap means a week nobody's commit was accepted for — merging would
	// silently produce a short dataset. Lane p is partition p's spans in
	// week order, each span every segment of its generation store.
	lanes := make([][]replayUnit, cfg.Partitions)
	for p, ps := range byPart {
		sort.Slice(ps, func(i, j int) bool { return ps[i].FromWeek < ps[j].FromWeek })
		next := 0
		for _, sp := range ps {
			if sp.FromWeek != next {
				return nil, fmt.Errorf("core: merge: partition %d weeks [%d,%d) uncovered", p, next, sp.FromWeek)
			}
			next = sp.ToWeek
			man, err := store.ReadManifest(sp.Path)
			if err != nil {
				return nil, err
			}
			for s := 0; s < man.Segments; s++ {
				lanes[p] = append(lanes[p], replayUnit{store.SegmentPath(sp.Path, s), sp.FromWeek, sp.ToWeek})
			}
		}
		if next != cfg.Weeks {
			return nil, fmt.Errorf("core: merge: partition %d weeks [%d,%d) uncovered", p, next, cfg.Weeks)
		}
	}

	// One shard per partition, so replay checks that every observation
	// hashes to its store's partition; a week outside a span's range is the
	// fenced surplus, skipped.
	shards := newShards(cfg.Weeks, cfg.Domains, cfg.Partitions)
	counts, err := replay(shards, lanes, nil)
	if err != nil {
		return nil, err
	}
	for p, n := range counts {
		if want := cfg.Weeks * cfg.DomainsPerPartition[p]; n != want {
			return nil, fmt.Errorf("core: merge: partition %d replayed %d observations, expected %d", p, n, want)
		}
	}
	res := mergeShards(shards)
	if !cfg.SkipPoC {
		res.Findings, err = poclab.Findings()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
