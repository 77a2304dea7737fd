package webgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// servedBytesGolden holds, per bundling fraction, the SHA-256 of every byte
// a 300-domain × 40-week ecosystem (seed 1) serves, as hashed by
// servedBytesHash. The Truth stream golden and the plain-mode golden pin
// neither bundled pages nor script bodies, so a changed filler draw or a
// bundle profile computed another way moves only these.
var servedBytesGolden = map[float64]string{
	0:   "36f9e2f49126ba8a8ed96da0f5daec5e6807632c91a304a8fa7495c848468827",
	0.3: "96389a9f488acd5a107539a4acc38d5262ac71c105fe511566601a3d24ed52fa",
	1:   "af7710bbc6187f16374d724147e4a60287f548f65e859277397a15f5f6d7f9b7",
}

// servedBytesHash hashes, site-major then week-major, every PageHTML
// status and body and, for each <script src> on the page, whether AssetJS
// resolves it and the body it returns. The three goldens cover 114,663
// such lookups.
func servedBytesHash(e *Ecosystem) string {
	h := sha256.New()
	for i := range e.Sites {
		for w := 0; w < e.Cfg.Weeks; w++ {
			html, status := e.PageHTML(i, w)
			fmt.Fprintf(h, "%d/%d %d %d\n%s", i, w, status, len(html), html)
			for _, src := range scriptSrcsOf(html) {
				body, ok := e.AssetJS(i, w, src)
				fmt.Fprintf(h, "%q %t %d\n%s", src, ok, len(body), body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestServedBytesGolden(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 1} {
		e := New(Config{Domains: 300, Weeks: 40, Seed: 1, Bundling: DefaultBundling(frac)})
		if got, want := servedBytesHash(e), servedBytesGolden[frac]; got != want {
			t.Errorf("DefaultBundling(%v): served bytes hash = %s, want %s", frac, got, want)
		}
	}
}
