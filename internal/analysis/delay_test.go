package analysis

import (
	"testing"
	"time"

	"clientres/internal/webgen"
)

// week returns the snapshot week of a calendar date.
func week(y int, m time.Month, d int) int {
	return webgen.WeekOf(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
}

func TestDelayBasicWindow(t *testing.T) {
	u := NewUpdateDelay(201)
	// CVE-2019-11358: patched 3.4.0 released 2019-04-10. A site on 1.12.4
	// at patch time that updates to 3.5.1 in Dec 2020 has a window of
	// roughly 600 days.
	w0 := week(2019, time.April, 15)
	w1 := week(2020, time.December, 14)
	u.Observe(obsWith("a.com", w0, "jquery", "1.12.4"))
	u.Observe(obsWith("a.com", w1, "jquery", "3.5.1"))
	res := u.Result(false, false)
	// 1.12.4 is affected by two patched advisories here (CVE-2019-11358
	// and CVE-2015-9251), so two windows close at the same update.
	if res.Updated != 2 {
		t.Fatalf("updated = %d (censored %d)", res.Updated, res.Censored)
	}
	days, ok := res.PerAdvisory["CVE-2019-11358"]
	if !ok || days < 550 || days > 650 {
		t.Errorf("11358 window = %.0f days (ok=%v), want ~610", days, ok)
	}
}

func TestDelayStartsAtPatchRelease(t *testing.T) {
	u := NewUpdateDelay(201)
	// The site was on the affected version long before the patch existed;
	// the measurable window opens at the patch release, not earlier.
	wEarly := week(2018, time.March, 12) // before 3.4.0 existed
	wFix := week(2019, time.April, 15)   // right after 3.4.0 shipped
	wUp := week(2019, time.October, 14)
	u.Observe(obsWith("b.com", wEarly, "jquery", "1.12.4"))
	u.Observe(obsWith("b.com", wFix, "jquery", "1.12.4"))
	u.Observe(obsWith("b.com", wUp, "jquery", "3.4.1"))
	res := u.Result(false, false)
	// Find the 11358 entry: the window must be ~6 months, not ~19 months.
	days, ok := res.PerAdvisory["CVE-2019-11358"]
	if !ok {
		t.Fatalf("no 11358 window: %+v", res.PerAdvisory)
	}
	if days < 150 || days > 220 {
		t.Errorf("11358 window = %.0f days, want ~187 (measured from patch release)", days)
	}
}

func TestDelayLateAdopterMeasuredFromAdoption(t *testing.T) {
	u := NewUpdateDelay(201)
	// A site that ADOPTS the vulnerable version a year after the patch is
	// measured from its own adoption, not from the patch date.
	wAdopt := week(2020, time.June, 1)
	wUp := week(2020, time.December, 7)
	u.Observe(obsWith("c.com", wAdopt, "jquery", "1.12.4"))
	u.Observe(obsWith("c.com", wUp, "jquery", "3.5.1"))
	days, ok := u.Result(false, false).PerAdvisory["CVE-2019-11358"]
	if !ok {
		t.Fatal("no window measured")
	}
	if days < 150 || days > 220 {
		t.Errorf("late-adopter window = %.0f days, want ~189", days)
	}
}

func TestDelayCensoredWindow(t *testing.T) {
	u := NewUpdateDelay(201)
	u.Observe(obsWith("d.com", week(2020, time.June, 1), "jquery", "1.12.4"))
	u.Observe(obsWith("d.com", week(2021, time.June, 7), "jquery", "1.12.4"))
	res := u.Result(false, false)
	if res.Updated != 0 || res.Censored == 0 {
		t.Errorf("frozen site should leave censored windows: %+v", res)
	}
}

func TestDelayRegressionAfterUpdateNotRecounted(t *testing.T) {
	u := NewUpdateDelay(201)
	// Update then regression: the first closed window stands; the
	// regression does not produce a second, longer window.
	u.Observe(obsWith("e.com", week(2020, time.June, 1), "jquery", "1.12.4"))
	u.Observe(obsWith("e.com", week(2020, time.August, 3), "jquery", "3.5.1"))
	u.Observe(obsWith("e.com", week(2020, time.September, 7), "jquery", "1.12.4"))
	u.Observe(obsWith("e.com", week(2021, time.March, 1), "jquery", "3.5.1"))
	res := u.Result(false, false)
	days := res.PerAdvisory["CVE-2019-11358"]
	if days > 120 {
		t.Errorf("window = %.0f days; regression must not extend the measured window", days)
	}
}

func TestDelayUnpatchedAdvisoriesExcluded(t *testing.T) {
	u := NewUpdateDelay(201)
	// Prototype advisories have no patched version: no window can open.
	u.Observe(obsWith("f.com", week(2021, time.July, 5), "prototype", "1.7.1"))
	u.Observe(obsWith("f.com", week(2021, time.December, 6), "prototype", "1.7.3"))
	res := u.Result(false, false)
	if _, ok := res.PerAdvisory["CVE-2020-27511"]; ok {
		t.Error("unpatched advisory must not contribute windows")
	}
}

func TestDelayTVVLongerForUnderstated(t *testing.T) {
	u := NewUpdateDelay(201)
	// CVE-2020-7656 (patched version 1.9.0, CVE range <1.9.0, TVV <3.6.0):
	// a site moving 1.8.3 → 1.12.4 → 3.6.0 closes the CVE window at the
	// first update but the TVV window only at the second.
	u.Observe(obsWith("g.com", week(2020, time.June, 1), "jquery", "1.8.3"))
	u.Observe(obsWith("g.com", week(2020, time.September, 7), "jquery", "1.12.4"))
	u.Observe(obsWith("g.com", week(2021, time.August, 2), "jquery", "3.6.0"))
	cve := u.Result(false, false).PerAdvisory["CVE-2020-7656"]
	tvv := u.Result(true, false).PerAdvisory["CVE-2020-7656"]
	if cve == 0 || tvv == 0 {
		t.Fatalf("windows missing: cve %.0f tvv %.0f", cve, tvv)
	}
	if tvv <= cve {
		t.Errorf("TVV window (%.0f) must exceed CVE window (%.0f)", tvv, cve)
	}
}
