package vulndb

// Browser is one row of the paper's Table 3: a desktop browser, its
// worldwide market share (Apr 2022 – Apr 2023, statcounter), and whether it
// still played Adobe Flash when the authors tested on May 26, 2023.
//
// This dataset is a deliberate simulation boundary: the paper produced it by
// manually installing ten browsers on macOS 12.4 and Windows 10 — an
// experiment no offline Go program can re-run. We preserve the artifact and
// its downstream use (the 360 Browser / flash.cn ecosystem finding).
type Browser struct {
	Name          string
	MarketSharePC float64 // percent
	SupportsFlash bool
	// Engine notes why support persists where it does.
	Engine string
}

var browsers = []Browser{
	{Name: "Chrome", MarketSharePC: 66.45, Engine: "Blink"},
	{Name: "Edge", MarketSharePC: 10.80, Engine: "Blink"},
	{Name: "Safari", MarketSharePC: 9.59, Engine: "WebKit"},
	{Name: "Firefox", MarketSharePC: 7.16, Engine: "Gecko"},
	{Name: "Opera", MarketSharePC: 3.09, Engine: "Blink"},
	{Name: "IE", MarketSharePC: 0.81, Engine: "Trident"},
	{Name: "360 Browser", MarketSharePC: 0.66, SupportsFlash: true,
		Engine: "Blink (Chrome 78 fork, bundles Flash; users pointed to flash.cn)"},
	{Name: "Yandex Browser", MarketSharePC: 0.39, Engine: "Blink"},
	{Name: "QQ Browser", MarketSharePC: 0.20, Engine: "Blink"},
	{Name: "Edge Legacy", MarketSharePC: 0.16, Engine: "EdgeHTML"},
}

// Browsers returns Table 3's rows in market-share order.
func Browsers() []Browser {
	out := make([]Browser, len(browsers))
	copy(out, browsers)
	return out
}

// FlashCVECount is the number of Adobe Flash Player CVEs publicly reported
// as of May 26, 2023 (Section 2.2).
const FlashCVECount = 1118

// officialSnippetSRI records, per top-15 library, whether the official
// website's copy-paste inclusion snippet carries an integrity attribute.
// The paper checked all fifteen and found exactly one (Bootstrap) — a
// missed opportunity given developers' copy-and-paste habits (Section 6.5).
var officialSnippetSRI = map[string]bool{
	"bootstrap": true,
}

// LibrariesWithSRISnippet returns the top-15 libraries whose official
// snippet includes integrity (the paper found one of fifteen).
func LibrariesWithSRISnippet() []Library {
	var out []Library
	for _, l := range libraries {
		if officialSnippetSRI[l.Slug] {
			out = append(out, l)
		}
	}
	return out
}
