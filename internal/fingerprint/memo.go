package fingerprint

// Memoized fingerprinting. The paper's central observation is that the
// web changes slowly — mean update delay 531 days — so in a weekly crawl
// the overwhelming majority of landing pages are byte-identical to the
// previous week's fetch. Re-tokenizing and re-matching the regex ruleset
// on an unchanged page produces an identical Detection; a content-hash
// cache turns that repeat work into a map lookup.

// memoKey identifies a (page content, serving host) pair. The content is
// keyed by FNV-1a 64 hash plus length; the host participates because
// Page's internal/external classification depends on it.
type memoKey struct {
	hash uint64
	n    int
	host string
}

// Memo caches Page results by page content hash. It is NOT safe for
// concurrent use — the intended deployment is one Memo per collection
// shard (domains are shard-disjoint, so caches never need to be shared;
// identical CDN boilerplate appearing on two shards just warms twice).
//
// Cached Detections are returned by value but share their Libraries
// slice and Flash pointer across hits; callers must treat a Detection
// from Page as read-only, which every consumer in this module already
// does (the analysis converters copy fields out).
type Memo struct {
	cap          int
	m            map[memoKey]Detection
	hits, misses uint64

	// scans caches content-signature results per script body, keyed by
	// content hash alone — a scan has no host dependence, so the same CDN
	// bundle fetched via two sites warms once. Script bodies change even
	// less often than pages (a bundle's contenthash name pins its bytes),
	// so the 21× unchanged-week fast path survives bundle scanning.
	scans                map[scanKey][]SignatureHit
	scanHits, scanMisses uint64
}

// scanKey identifies script content by FNV-1a 64 hash plus length.
type scanKey struct {
	hash uint64
	n    int
}

// DefaultMemoEntries bounds a Memo when NewMemo is given no capacity. At
// ~a few hundred bytes per cached Detection this keeps a full cache in
// the tens of MB per shard.
const DefaultMemoEntries = 1 << 16

// NewMemo returns a memoizing fingerprint cache holding at most capacity
// entries (capacity <= 0 means DefaultMemoEntries). When full, the cache
// resets wholesale — an epoch eviction: cheap, allocation-free between
// epochs, and harmless here because the working set (one week's distinct
// pages per shard) either fits or the cache was undersized anyway.
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoEntries
	}
	return &Memo{cap: capacity, m: make(map[memoKey]Detection)}
}

// Page returns the fingerprint of an HTML document, from cache when the
// same (content, host) pair was seen before. Semantics are identical to
// the package-level Page for every input (property-tested against
// randomized rendered pages).
func (mc *Memo) Page(html, pageHost string) Detection {
	key := memoKey{hash: fnv1a64(html), n: len(html), host: pageHost}
	if det, ok := mc.m[key]; ok {
		mc.hits++
		return det
	}
	det := Page(html, pageHost)
	if len(mc.m) >= mc.cap {
		mc.m = make(map[memoKey]Detection)
	}
	mc.m[key] = det
	mc.misses++
	return det
}

// ScanScript returns the content-signature hits for one script body, from
// cache when the same content was scanned before. The returned slice is
// shared cache state: callers must treat it as read-only (mergeScans does).
func (mc *Memo) ScanScript(body string) []SignatureHit {
	key := scanKey{hash: fnv1a64(body), n: len(body)}
	if hits, ok := mc.scans[key]; ok {
		mc.scanHits++
		return hits
	}
	hits := ScanScript(body)
	if mc.scans == nil {
		mc.scans = make(map[scanKey][]SignatureHit)
	} else if len(mc.scans) >= mc.cap {
		// Same epoch eviction as the page cache: reset wholesale.
		mc.scans = make(map[scanKey][]SignatureHit)
	}
	mc.scans[key] = hits
	mc.scanMisses++
	return hits
}

// PageWithScripts is the memoized form of the package-level
// PageWithScripts: the page detection comes from the page cache, each
// script body's signature scan from the scan cache, and the merge runs
// copy-on-write so cached Detections are never mutated. Semantics are
// identical to the package-level function for every input; with no
// scripts it is Page.
func (mc *Memo) PageWithScripts(html, pageHost string, scripts []ScriptBody) Detection {
	return mergeScans(mc.Page(html, pageHost), scripts, mc.ScanScript)
}

// Stats reports cache hits and misses since creation.
func (mc *Memo) Stats() (hits, misses uint64) {
	return mc.hits, mc.misses
}

// ScanStats reports body-scan cache hits and misses since creation.
func (mc *Memo) ScanStats() (hits, misses uint64) {
	return mc.scanHits, mc.scanMisses
}

// fnv1a64 is FNV-1a over a string, inlined to avoid the hash/fnv
// allocation and string→[]byte copy on the per-page hot path.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
