package fingerprint

import (
	"fmt"
	"reflect"
	"testing"

	"clientres/internal/semver"
	"clientres/internal/webgen"
)

// TestMemoScanMatchesColdScan mirrors the page cache's semantics contract
// for the scan cache: over realistic generated bundle bodies — with repeats,
// the hit case — every memoized result must deep-equal the cold scan.
func TestMemoScanMatchesColdScan(t *testing.T) {
	memo := NewMemo(0)
	bodies := []string{
		webgen.LibraryJS("jquery", semver.MustParse("1.12.4")),
		webgen.LibraryJS("underscore", semver.MustParse("1.8.3")),
		webgen.LibraryJS("bootstrap", semver.MustParse("4.5.2")),
		`/*! jQuery v3.5.1 */`,
		"", "\x00garbage\xff",
	}
	calls := 0
	for round := 0; round < 3; round++ {
		for _, body := range bodies {
			want := ScanScript(body)
			got := memo.ScanScript(body)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memoized scan differs:\n got %+v\nwant %+v", got, want)
			}
			calls++
		}
	}
	hits, misses := memo.ScanStats()
	if hits == 0 {
		t.Error("repeated bodies never hit the scan cache")
	}
	if int(hits+misses) != calls {
		t.Errorf("scan stats %d+%d don't add up to %d calls", hits, misses, calls)
	}
}

// TestMemoScanEpochEviction: the scan cache stays bounded by the same cap
// as the page cache and stays correct across its wholesale reset.
func TestMemoScanEpochEviction(t *testing.T) {
	memo := NewMemo(8)
	for i := 0; i < 100; i++ {
		body := fmt.Sprintf(`var support={jquery:"1.12.4",expando:"e%d"};`, i)
		want := ScanScript(body)
		if got := memo.ScanScript(body); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: scan differs after eviction", i)
		}
		if len(memo.scans) > 8 {
			t.Fatalf("scan cache grew to %d entries past its cap of 8", len(memo.scans))
		}
	}
}

// TestMemoScanIndependentOfPageCache: scan entries and page entries draw on
// separate maps — filling one must not evict the other.
func TestMemoScanIndependentOfPageCache(t *testing.T) {
	memo := NewMemo(4)
	body := `_.VERSION="1.8.3";`
	memo.ScanScript(body)
	for i := 0; i < 20; i++ {
		memo.Page(fmt.Sprintf("<html><!-- %d --></html>", i), "h.example")
	}
	memo.ScanScript(body)
	if hits, _ := memo.ScanStats(); hits != 1 {
		t.Errorf("scan hits = %d, want 1 — page churn evicted the scan cache", hits)
	}
}

// TestMemoPageWithScriptsMatchesCold: the fully memoized merge path returns
// detections deep-equal to the uncached PageWithScripts — including on
// cache hits, where the cached Detection's Libraries slice is shared and
// the merge must copy-on-write rather than mutate it.
func TestMemoPageWithScriptsMatchesCold(t *testing.T) {
	memo := NewMemo(0)
	html := `<html><script src="/assets/bundle.ab.js"></script></html>`
	scripts := []ScriptBody{{URL: "/assets/bundle.ab.js",
		Body: webgen.LibraryJS("jquery", semver.MustParse("1.12.4")) + webgen.LibraryJS("moment", semver.MustParse("2.24.0"))}}
	for round := 0; round < 3; round++ {
		want := PageWithScripts(html, "h.example", scripts)
		got := memo.PageWithScripts(html, "h.example", scripts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: memoized PageWithScripts differs:\n got %+v\nwant %+v", round, got, want)
		}
		// The cached page Detection must still be merge-free: scanning
		// again from the cache must not see the previous round's appends.
		if cached := memo.Page(html, "h.example"); len(cached.Libraries) != 0 {
			t.Fatalf("round %d: merge mutated the cached page Detection: %+v", round, cached.Libraries)
		}
	}
}
