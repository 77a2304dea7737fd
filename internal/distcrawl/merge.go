package distcrawl

import (
	"fmt"

	"clientres/internal/alexa"
	"clientres/internal/core"
	"clientres/internal/store"
)

// MergeOptions parameterizes Merge.
type MergeOptions struct {
	// SkipPoC leaves the merged Results without version-validation
	// findings (tests; reports stay comparable to serial runs that also
	// skipped them).
	SkipPoC bool
}

// Merge turns a completed (or partially crawled) distributed run into one
// Results: every accepted span's generation is sealed if its worker
// never closed it (see sealGeneration), then all spans replay through
// core.MergeWorkerStores with their coordinator-accepted week ranges.
// The per-partition expected observation counts are recomputed from the
// spec's seed, so a short or padded generation fails the merge loudly.
func Merge(spec RunSpec, spans []Span, opt MergeOptions) (*core.Results, error) {
	if len(spans) == 0 {
		return nil, fmt.Errorf("distcrawl: merge of zero spans")
	}
	replay := make([]core.ReplaySpan, 0, len(spans))
	for _, sp := range spans {
		dir := GenDir(spec.Dir, sp.Partition, sp.Epoch)
		if err := sealGeneration(dir); err != nil {
			return nil, err
		}
		replay = append(replay, core.ReplaySpan{
			Path: dir, Partition: sp.Partition,
			FromWeek: sp.FromWeek, ToWeek: sp.ToWeek,
		})
	}
	// The expected per-partition domain counts come from the same domain
	// list every worker's ecosystem was generated on.
	perPart := make([]int, spec.Partitions)
	for _, d := range alexa.Generate(spec.Domains, spec.Seed).Domains {
		perPart[store.ShardOf(d.Name, spec.Partitions)]++
	}
	return core.MergeWorkerStores(replay, core.MergeConfig{
		Weeks: spec.Weeks, Domains: spec.Domains, Partitions: spec.Partitions,
		DomainsPerPartition: perPart, SkipPoC: opt.SkipPoC,
	})
}

// sealGeneration makes an unsealed generation directory readable: a
// worker that crashed (or was fenced) left fsynced segments plus a
// checkpoint but no manifest. store.Salvage — the seal `fsck -repair`
// uses — truncates every segment back to the journal's committed offsets,
// re-hashes the committed members against it and writes a manifest marked
// salvaged. A generation its worker closed cleanly already has a manifest
// and is left alone.
func sealGeneration(dir string) error {
	if store.IsSegmented(dir) {
		return nil
	}
	if _, err := store.Salvage(dir); err != nil {
		return fmt.Errorf("distcrawl: sealing %s: %w", dir, err)
	}
	return nil
}
