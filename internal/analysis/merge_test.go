package analysis

// The merge equivalence suite: for every collector, folding a randomized
// observation stream through N domain-disjoint shard instances and merging
// them must produce exactly the state a single instance reaches observing
// the whole stream. This is the correctness proof behind core's sharded
// collection pipeline — reflect.DeepEqual over the full (unexported)
// collector state is deliberately the strongest possible check.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"clientres/internal/store"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
)

// truthObservations streams a small generator ecosystem into a slice, weeks
// ascending — the same order and shape the direct pipeline consumes.
func truthObservations(t *testing.T, domains, weeks int, seed int64) []store.Observation {
	t.Helper()
	eco := webgen.New(webgen.Config{Domains: domains, Weeks: weeks, Seed: seed})
	var out []store.Observation
	TruthSource{Eco: eco}.ForEach(func(o store.Observation) { out = append(out, o) })
	if len(out) != domains*weeks {
		t.Fatalf("truth stream = %d observations, want %d", len(out), domains*weeks)
	}
	return out
}

// streamShape parameterizes the randomized stream.
const (
	streamDomains = 48
	streamWeeks   = 36
)

// randomStream generates a week-ascending randomized observation stream:
// per-domain version random walks (producing updates, downgrades, and
// advisory-range crossings), WordPress and Flash populations, SRI and
// version-control hosting, anti-bot/dead weeks — every code path the
// collectors branch on.
func randomStream(seed int64) []store.Observation {
	rng := rand.New(rand.NewSource(seed))

	slugs := []string{"jquery", "bootstrap", "moment", "underscore",
		"jquery-cookie", "js-cookie", "swfobject", "prototype"}
	pool := map[string][]string{}
	for _, slug := range slugs {
		cat, ok := vulndb.CatalogFor(slug)
		if !ok {
			continue
		}
		for _, rel := range cat.Releases {
			pool[slug] = append(pool[slug], rel.Version.String())
		}
	}
	hosts := []string{"cdnjs.cloudflare.com", "code.jquery.com",
		"raw.githubusercontent.com", "github.io"}
	crossorigins := []string{"", "anonymous", "use-credentials"}
	countries := []string{"US", "CN", "KR", "DE"}
	wpVersions := []string{"4.9.8", "5.2.1", "5.7", "5.8.3"}

	type libState struct {
		slug string
		idx  int // index into the version pool, random-walked weekly
		ext  bool
		host string
		sri  bool
		co   string
	}
	type domState struct {
		name    string
		rank    int
		country string
		libs    []*libState
		wp      string
		flash   bool
		visible bool
	}
	doms := make([]*domState, streamDomains)
	for d := range doms {
		ds := &domState{
			name:    fmt.Sprintf("site-%03d.example", d),
			rank:    d + 1,
			country: countries[rng.Intn(len(countries))],
		}
		nLibs := 1 + rng.Intn(4)
		for j := 0; j < nLibs; j++ {
			slug := slugs[rng.Intn(len(slugs))]
			vs := pool[slug]
			if len(vs) == 0 {
				continue
			}
			ds.libs = append(ds.libs, &libState{
				slug: slug,
				idx:  rng.Intn(len(vs)),
				ext:  rng.Intn(3) > 0,
				host: hosts[rng.Intn(len(hosts))],
				sri:  rng.Intn(4) == 0,
				co:   crossorigins[rng.Intn(len(crossorigins))],
			})
		}
		if rng.Intn(4) == 0 {
			ds.wp = wpVersions[rng.Intn(len(wpVersions))]
		}
		if rng.Intn(5) == 0 {
			ds.flash = true
			ds.visible = rng.Intn(2) == 0
		}
		doms[d] = ds
	}

	var out []store.Observation
	for w := 0; w < streamWeeks; w++ {
		for _, ds := range doms {
			obs := store.Observation{
				Domain: ds.name, Rank: ds.rank, Country: ds.country,
				Week: w, Status: 200, Bytes: 4096,
			}
			switch rng.Intn(12) {
			case 0:
				obs.Status, obs.Bytes = 0, 0 // dead
			case 1:
				obs.Status, obs.Bytes = 503, 120 // transient failure
			case 2:
				obs.Bytes = 64 // anti-bot empty page
			}
			if obs.OK() {
				obs.WordPress = ds.wp
				for _, ls := range ds.libs {
					vs := pool[ls.slug]
					// Random walk the version: updates and the occasional
					// downgrade, so UpdateDelay and Regressions both fire.
					if rng.Intn(5) == 0 {
						ls.idx += 1 + rng.Intn(3)
					} else if rng.Intn(11) == 0 {
						ls.idx -= 1 + rng.Intn(2)
					}
					if ls.idx < 0 {
						ls.idx = 0
					}
					if ls.idx >= len(vs) {
						ls.idx = len(vs) - 1
					}
					rec := store.LibRecord{
						Slug: ls.slug, Version: vs[ls.idx], Known: true,
						External: ls.ext,
					}
					if ls.ext {
						rec.Host = ls.host
						rec.SRI = ls.sri
						if ls.sri {
							rec.Crossorigin = ls.co
						}
					}
					obs.Libs = append(obs.Libs, rec)
				}
				if rng.Intn(9) == 0 {
					// A tail library without a parseable version.
					obs.Libs = append(obs.Libs, store.LibRecord{Slug: "customlib"})
				}
				obs.HasJS = len(obs.Libs) > 0 || rng.Intn(3) > 0
				obs.Resources = store.ResourceFlags{
					JavaScript: obs.HasJS,
					CSS:        rng.Intn(2) == 0,
					Favicon:    rng.Intn(2) == 0,
					XML:        rng.Intn(8) == 0,
					SVG:        rng.Intn(6) == 0,
					Flash:      ds.flash,
					AXD:        rng.Intn(16) == 0,
				}
				if ds.flash {
					sap := rng.Intn(2) == 0
					obs.Flash = &store.FlashRecord{
						ScriptAccessParam: sap,
						Always:            sap && rng.Intn(3) == 0,
						ViaSWFObject:      rng.Intn(2) == 0,
						Visible:           ds.visible,
					}
				}
			}
			out = append(out, obs)
		}
	}
	return out
}

// splitByDomain partitions a stream into domain-disjoint shards by FNV-1a
// hash, preserving each domain's observation order — the sharding contract
// of core's parallel pipeline.
func splitByDomain(obs []store.Observation, shards int) [][]store.Observation {
	parts := make([][]store.Observation, shards)
	for _, o := range obs {
		h := fnv.New32a()
		_, _ = h.Write([]byte(o.Domain))
		s := int(h.Sum32() % uint32(shards))
		parts[s] = append(parts[s], o)
	}
	return parts
}

// checkMerge asserts Merge(split(obs)) ≡ Observe(obs) for one collector.
func checkMerge[T Collector](t *testing.T, all []store.Observation, parts [][]store.Observation, mk func() T, merge func(dst, src T)) {
	t.Helper()
	serial := mk()
	for _, o := range all {
		serial.Observe(o)
	}
	merged := mk()
	nonEmpty := 0
	for _, part := range parts {
		if len(part) > 0 {
			nonEmpty++
		}
		shard := mk()
		for _, o := range part {
			shard.Observe(o)
		}
		merge(merged, shard)
	}
	if nonEmpty == 0 {
		t.Fatal("degenerate split: no non-empty shard")
	}
	if !reflect.DeepEqual(serial, merged) {
		t.Errorf("%s: sharded merge diverges from serial state", serial.Name())
	}
}

// checkAllMerges runs checkMerge for every collector over one study shape.
func checkAllMerges(t *testing.T, all []store.Observation, parts [][]store.Observation, weeks, domains int) {
	t.Helper()
	checkMerge(t, all, parts,
		func() *Collection { return NewCollection(weeks) }, (*Collection).Merge)
	checkMerge(t, all, parts,
		func() *LibraryStats { return NewLibraryStats(weeks) }, (*LibraryStats).Merge)
	checkMerge(t, all, parts,
		func() *VulnPrevalence { return NewVulnPrevalence(weeks) }, (*VulnPrevalence).Merge)
	checkMerge(t, all, parts,
		func() *UpdateDelay { return NewUpdateDelay(weeks) }, (*UpdateDelay).Merge)
	checkMerge(t, all, parts,
		func() *SRI { return NewSRI(weeks) }, (*SRI).Merge)
	checkMerge(t, all, parts,
		func() *Flash { return NewFlash(weeks, domains) }, (*Flash).Merge)
	checkMerge(t, all, parts,
		func() *WordPress { return NewWordPress(weeks) }, (*WordPress).Merge)
	checkMerge(t, all, parts,
		func() *Discontinued { return NewDiscontinued(weeks) }, (*Discontinued).Merge)
	checkMerge(t, all, parts,
		func() *Regressions { return NewRegressions(weeks) }, (*Regressions).Merge)
}

func TestMergeEquivalenceAllCollectors(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		obs := randomStream(seed)
		for _, shards := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				parts := splitByDomain(obs, shards)
				for s, part := range parts {
					if len(part) == 0 {
						t.Fatalf("shard %d/%d received no observations", s, shards)
					}
				}
				checkAllMerges(t, obs, parts, streamWeeks, streamDomains)
			})
		}
	}
	// Two spellings of one version on two domains of different shards: the
	// serial collector sees "3.5" then "3.5.0", each shard sees one, and
	// both must display the same one.
	t.Run("spellings", func(t *testing.T) {
		obs := []store.Observation{
			{Domain: "a.example", Rank: 1, Status: 200, Bytes: 4096, HasJS: true,
				Libs: []store.LibRecord{{Slug: "jquery", Version: "3.5", Known: true}}},
			{Domain: "b.example", Rank: 2, Status: 200, Bytes: 4096, HasJS: true,
				Libs: []store.LibRecord{{Slug: "jquery", Version: "3.5.0", Known: true}}},
		}
		parts := splitByDomain(obs, 2)
		if len(parts[0]) != 1 || len(parts[1]) != 1 {
			t.Fatalf("the two domains must land on different shards: %d/%d", len(parts[0]), len(parts[1]))
		}
		checkAllMerges(t, obs, parts, 1, 2)
	})
}

// TestMergeIntoEmptyIsIdentity pins the algebra the sharded pipeline builds
// on: merging any collector into a fresh one reproduces it exactly (the
// fresh collector is a neutral element).
func TestMergeIntoEmptyIsIdentity(t *testing.T) {
	obs := randomStream(5)
	// A single "shard" carrying the full stream, merged into an empty
	// collector, must equal the serial collector.
	checkAllMerges(t, obs, [][]store.Observation{obs, nil}, streamWeeks, streamDomains)
}

// TestMergeGroundTruthStream re-runs the equivalence over a realistic
// generator stream (the same source the direct pipeline consumes), so the
// property holds on production-shaped data, not just the synthetic walk.
func TestMergeGroundTruthStream(t *testing.T) {
	src := truthObservations(t, 160, 20, 3)
	checkAllMerges(t, src, splitByDomain(src, 4), 20, 160)
}
