// Package alexa generates deterministic ranked domain lists standing in for
// the Alexa Top-1M snapshot the paper crawled (Mar 2018).
//
// The real list is unavailable offline; what the study needs from it is (a) a
// stable ranked identifier per website, (b) a popularity ordering so that
// rank-band analyses (Top 1K / 10K / 1M, Figure 8) are meaningful, and (c) a
// plausible country mix for the Flash case study (Section 8). The generator
// provides all three deterministically from a seed.
package alexa

import (
	"fmt"
	"math/rand"
)

// Domain is one ranked entry of the list.
type Domain struct {
	// Rank is the 1-based Alexa rank.
	Rank int
	// Name is the registered domain name, e.g. "stream-media4821.cn".
	Name string
	// TLD is the public suffix of Name without the leading dot.
	TLD string
	// Country is the ISO-like country code the site is operated from. It
	// correlates with, but is not determined by, the TLD (a .com can be
	// operated from anywhere), mirroring the paper's manual WHOIS analysis.
	Country string
}

// List is a ranked domain list.
type List struct {
	Domains []Domain
}

// tldWeights approximates the TLD mix of popular-site lists.
var tldWeights = []struct {
	tld    string
	weight int
}{
	{"com", 480}, {"org", 70}, {"net", 55}, {"ru", 50}, {"de", 40},
	{"cn", 40}, {"jp", 30}, {"br", 25}, {"uk", 25}, {"ir", 20},
	{"fr", 20}, {"it", 15}, {"in", 15}, {"pl", 12}, {"es", 12},
	{"io", 10}, {"tw", 8}, {"hu", 6}, {"pt", 6}, {"kr", 6},
}

// countryForTLD maps country-code TLDs to their country; generic TLDs draw
// from a global mix.
var countryForTLD = map[string]string{
	"ru": "RU", "de": "DE", "cn": "CN", "jp": "JP", "br": "BR",
	"uk": "GB", "ir": "IR", "fr": "FR", "it": "IT", "in": "IN",
	"pl": "PL", "es": "ES", "tw": "TW", "hu": "HU", "pt": "PT",
	"kr": "KR",
}

// genericCountries is the operator-country mix for generic TLDs.
var genericCountries = []struct {
	country string
	weight  int
}{
	{"US", 45}, {"CN", 12}, {"RU", 7}, {"DE", 6}, {"JP", 5},
	{"GB", 5}, {"IN", 4}, {"BR", 4}, {"FR", 3}, {"IR", 2},
	{"ES", 2}, {"TW", 2}, {"HU", 1}, {"PT", 1}, {"KR", 1},
}

// nameStems give the generated names some lexical variety; purely cosmetic
// but useful when eyeballing crawler logs.
var nameStems = []string{
	"news", "shop", "blog", "media", "portal", "forum", "game", "video",
	"cloud", "mail", "photo", "travel", "music", "sport", "tech", "store",
	"wiki", "data", "stream", "social",
}

// Generate returns a ranked list of n domains, deterministic in seed.
func Generate(n int, seed int64) List {
	r := rand.New(rand.NewSource(seed))
	tldTotal := 0
	for _, tw := range tldWeights {
		tldTotal += tw.weight
	}
	gcTotal := 0
	for _, gc := range genericCountries {
		gcTotal += gc.weight
	}
	domains := make([]Domain, n)
	for i := range domains {
		tld := pickTLD(r, tldTotal)
		country, ok := countryForTLD[tld]
		if !ok {
			country = pickGenericCountry(r, gcTotal)
		}
		stem := nameStems[r.Intn(len(nameStems))]
		domains[i] = Domain{
			Rank:    i + 1,
			Name:    fmt.Sprintf("%s%d.%s", stem, i+1, tld),
			TLD:     tld,
			Country: country,
		}
	}
	return List{Domains: domains}
}

func pickTLD(r *rand.Rand, total int) string {
	x := r.Intn(total)
	for _, tw := range tldWeights {
		if x < tw.weight {
			return tw.tld
		}
		x -= tw.weight
	}
	return "com"
}

func pickGenericCountry(r *rand.Rand, total int) string {
	x := r.Intn(total)
	for _, gc := range genericCountries {
		if x < gc.weight {
			return gc.country
		}
		x -= gc.weight
	}
	return "US"
}

// Len returns the number of domains in the list.
func (l List) Len() int { return len(l.Domains) }

// ByName returns a lookup map from domain name to its entry.
func (l List) ByName() map[string]Domain {
	m := make(map[string]Domain, len(l.Domains))
	for _, d := range l.Domains {
		m[d.Name] = d
	}
	return m
}
