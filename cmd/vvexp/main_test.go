package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"clientres/internal/poclab"
)

// TestOutputMatchesGolden pins the rendered findings of the whole
// experiment (Table 2, Figure 4, Figure 13 and the incorrect-count line)
// byte for byte. Each round reruns every environment, so an ordering that
// depended on how the lab's parallel environments were scheduled would
// show as a diff in some round. When the findings are meant to change,
// regenerate the file with `go run ./cmd/vvexp > cmd/vvexp/testdata/vvexp.golden`.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "vvexp.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		findings, err := poclab.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		render(&got, findings)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("round %d: output differs from testdata/vvexp.golden:\n%s", round, got.Bytes())
		}
	}
}
