package webgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// generatorStreamGolden is the SHA-256 of the Truth stream of a 300-domain
// × 40-week ecosystem (seed 1, DefaultBundling(0.3)), as hashed by
// truthStreamHash. Any change to a draw, a profile or a week's resolution
// moves it; a refactor of how the draws are computed must not.
const generatorStreamGolden = "7876998347bd9e90dbaaa86f99f97019dc5b974c67d2922f3492717721fa9d62"

// truthStreamHash hashes every field the store and the collectors read from
// the ground truth: status, empty page, WordPress, bundled, every library
// field and the Flash state, site-major then week-major.
func truthStreamHash(e *Ecosystem, weeks int) string {
	h := sha256.New()
	for i := range e.Sites {
		for w := 0; w < weeks; w++ {
			t := e.Truth(i, w)
			fmt.Fprintf(h, "%d/%d %d %t %t %q %t\n", i, w, t.Status, t.Accessible, t.EmptyPage, t.WordPress.String(), t.Bundled)
			for _, l := range t.Libs {
				fmt.Fprintf(h, " %q %q %t %q %t %q\n", l.Slug, l.Version.String(), l.External, l.Host, l.SRI, l.Crossorigin)
			}
			if f := t.Flash; f != nil {
				fmt.Fprintf(h, " flash %t %t %t %t\n", f.ScriptAccessParam, f.Always, f.ViaSWFObject, f.Visible)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorStreamGolden(t *testing.T) {
	const domains, weeks = 300, 40
	e := New(Config{Domains: domains, Weeks: weeks, Seed: 1, Bundling: DefaultBundling(0.3)})
	if got := truthStreamHash(e, weeks); got != generatorStreamGolden {
		t.Fatalf("generator Truth stream hash = %s, want %s", got, generatorStreamGolden)
	}
}
