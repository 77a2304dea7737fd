package alexa

import (
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(500, 42)
	b := Generate(500, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce identical lists")
	}
	c := Generate(500, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateRanksAndNames(t *testing.T) {
	l := Generate(100, 1)
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	seen := map[string]bool{}
	for i, d := range l.Domains {
		if d.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, d.Rank)
		}
		if seen[d.Name] {
			t.Errorf("duplicate name %q", d.Name)
		}
		seen[d.Name] = true
		if !strings.HasSuffix(d.Name, "."+d.TLD) {
			t.Errorf("name %q does not end in TLD %q", d.Name, d.TLD)
		}
		if d.Country == "" {
			t.Errorf("domain %q has empty country", d.Name)
		}
	}
}

func TestCountryConsistentWithCCTLD(t *testing.T) {
	l := Generate(5000, 7)
	for _, d := range l.Domains {
		if want, ok := countryForTLD[d.TLD]; ok && d.Country != want {
			t.Errorf("%s: country %s, want %s", d.Name, d.Country, want)
		}
	}
}

func TestTLDMixIsPlausible(t *testing.T) {
	l := Generate(20000, 11)
	counts := map[string]int{}
	for _, d := range l.Domains {
		counts[d.TLD]++
	}
	comFrac := float64(counts["com"]) / float64(l.Len())
	if comFrac < 0.40 || comFrac > 0.60 {
		t.Errorf(".com fraction = %.2f, want ~0.50", comFrac)
	}
	if counts["cn"] == 0 || counts["ru"] == 0 {
		t.Error("expected some .cn and .ru domains")
	}
}

func TestByName(t *testing.T) {
	l := Generate(50, 9)
	m := l.ByName()
	if len(m) != 50 {
		t.Fatalf("ByName size = %d", len(m))
	}
	for _, d := range l.Domains {
		if m[d.Name].Rank != d.Rank {
			t.Errorf("lookup mismatch for %s", d.Name)
		}
	}
}
