package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"clientres/internal/webgen"
)

// TestReportGolden pins the bytes of WriteReport for two small studies. The
// byte-identity tests elsewhere compare two configurations of one build; this
// one catches a change that alters every report the same way. A deliberate
// change to the report's text updates these hashes in the same commit.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"direct", Config{Domains: 200, Weeks: 20, Seed: 3},
			"6a5cb856772fba3b0bc2d3398a57b9e0818e652849f35c1f396f2a483b350c22"},
		{"bundled", Config{Domains: 200, Weeks: 20, Seed: 3, Bundling: webgen.DefaultBundling(0.3)},
			"1cd0cdead5734c5ac6071eb0e59c9b0e01e95ce92f0d759e14f4c35a6cf9710b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Findings) == 0 {
				t.Fatal("study ran without findings")
			}
			h := sha256.New()
			res.WriteReport(h)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("report sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
