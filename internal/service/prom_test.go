package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clientres/internal/policy"
)

// TestMetricsExpositionGroupsFamilies checks the whole /metrics body
// against the text format's grouping rule: every family is one
// contiguous group led by its own TYPE line (a HELP line names the family
// of the TYPE line that follows it), and every sample sits in its own
// family's group — a histogram or summary sample may add _bucket, _count
// or _sum to the family name.
func TestMetricsExpositionGroupsFamilies(t *testing.T) {
	pol, err := policy.Compile([]byte(gateYAML))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Policy: pol})
	postAudit(s, vulnerablePage, "")
	postAudit(s, vulnerablePage, "")
	postAudit(s, "{", "application/json") // a 4xx class next to the 2xx
	postBatch(s, `{"policy":"server"}`+"\n"+`{"html":"<p>x</p>"}`+"\n")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	seen := map[string]bool{}
	var family, kind, help string
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if help != "" {
				t.Errorf("HELP %s is not followed by its TYPE line", help)
			}
			help = f[2]
		case strings.HasPrefix(line, "# TYPE "):
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if help != "" && help != f[2] {
				t.Errorf("HELP %s leads the group of %s", help, f[2])
			}
			if seen[f[2]] {
				t.Errorf("family %s is split into more than one group", f[2])
			}
			seen[f[2]] = true
			family, kind, help = f[2], f[3], ""
		default:
			if help != "" {
				t.Errorf("HELP %s is not followed by its TYPE line", help)
				help = ""
			}
			name := line[:strings.IndexAny(line, "{ ")]
			ok := name == family
			if kind == "histogram" || kind == "summary" {
				for _, suffix := range []string{"_bucket", "_count", "_sum"} {
					ok = ok || name == family+suffix
				}
			}
			if !ok {
				t.Errorf("sample %q sits in the group of %s", line, family)
			}
		}
	}
	if help != "" {
		t.Errorf("HELP %s is not followed by its TYPE line", help)
	}
	if len(seen) < 18 {
		t.Errorf("only %d families exported, want every one exercised", len(seen))
	}
}
