package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"clientres/internal/store"
)

// refSeries is the map-backed week series the dense one replaced, kept as
// the reference: any week adds, Series keeps [0, weeks).
type refSeries map[int]int

func (r refSeries) add(week, n int) { r[week] += n }

func (r refSeries) merge(o refSeries) {
	for w, n := range o {
		r[w] += n
	}
}

func (r refSeries) series(weeks int) []int {
	out := make([]int, weeks)
	for w, n := range r {
		if w >= 0 && w < weeks {
			out[w] = n
		}
	}
	return out
}

// randomWeek draws mostly in-range weeks plus the edges and far outliers a
// corrupt store could carry.
func randomWeek(rng *rand.Rand, weeks int) int {
	switch rng.Intn(8) {
	case 0:
		return -1
	case 1:
		return weeks
	case 2:
		return 1e9
	case 3:
		return -1e9
	default:
		return rng.Intn(weeks)
	}
}

func TestWeekSeriesOutOfRangeWeeks(t *testing.T) {
	const weeks = 12
	s := newWeekSeries(weeks)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		s.add(-i, 1)
		s.add(weeks+i, 1)
		s.add(1e9+i, 1)
	})
	if allocs != 0 {
		t.Errorf("out-of-range adds allocated %.1f times per run", allocs)
	}
	if len(s) != weeks || !reflect.DeepEqual(s.Series(), make([]int, weeks)) {
		t.Fatalf("out-of-range adds changed the series: len %d, %v", len(s), s.Series())
	}

	rng := rand.New(rand.NewSource(7))
	a, b := newWeekSeries(weeks), newWeekSeries(weeks)
	ra, rb := refSeries{}, refSeries{}
	for i := 0; i < 2000; i++ {
		w, n := randomWeek(rng, weeks), 1+rng.Intn(3)
		if rng.Intn(2) == 0 {
			a.add(w, n)
			ra.add(w, n)
		} else {
			b.add(w, n)
			rb.add(w, n)
		}
	}
	if got, want := a.Series(), ra.series(weeks); !reflect.DeepEqual(got, want) {
		t.Fatalf("after random adds Series = %v, reference %v", got, want)
	}
	a.merge(b)
	ra.merge(rb)
	if got, want := a.Series(), ra.series(weeks); !reflect.DeepEqual(got, want) {
		t.Fatalf("after merge Series = %v, reference %v", got, want)
	}

	// Series hands out a copy: writing it leaves the collector's counts.
	out := a.Series()
	out[0] = -5
	if a[0] == -5 {
		t.Fatal("Series returned the collector's own backing array")
	}

	// Maps of lazily created series merge into fresh entries of the
	// study's length.
	dst := map[string]weekSeries{}
	mergeSeriesMap(dst, map[string]weekSeries{"x": a}, weeks)
	if got, want := dst["x"].Series(), ra.series(weeks); len(dst["x"]) != weeks || !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeSeriesMap entry = %v, reference %v", got, want)
	}
}

// TestCollectorsIgnoreOutOfRangeWeeks feeds every collector observations
// whose week lies outside the study, as a corrupt or mismatched store can:
// nothing panics, nothing allocates per week number, and every report
// series equals that of a run without them.
func TestCollectorsIgnoreOutOfRangeWeeks(t *testing.T) {
	const weeks = 8
	clean := randomStream(11)
	var withBad []store.Observation
	for i, o := range clean {
		withBad = append(withBad, o)
		if i%5 == 0 {
			for _, w := range []int{-1, weeks, 1e9} {
				bad := o
				bad.Week = w
				withBad = append(withBad, bad)
			}
		}
	}
	inStudy := clean[:0:0]
	for _, o := range clean {
		if o.Week < weeks {
			inStudy = append(inStudy, o)
		}
	}

	c := NewCollection(weeks)
	obs := store.Observation{Week: 1e9, Status: 200, Bytes: 1000, Resources: store.ResourceFlags{JavaScript: true}}
	if allocs := testing.AllocsPerRun(1000, func() { obs.Week++; c.Observe(obs) }); allocs != 0 {
		t.Errorf("Collection.Observe at weeks past 1e9 allocated %.1f times per run", allocs)
	}

	run := func(stream []store.Observation) (*Collection, *LibraryStats, *VulnPrevalence, *WordPress) {
		c, l := NewCollection(weeks), NewLibraryStats(weeks)
		v, w := NewVulnPrevalence(weeks), NewWordPress(weeks)
		r := NewRunner(c, l, v, w, NewFlash(weeks, streamDomains), NewSRI(weeks), NewDiscontinued(weeks))
		for _, o := range stream {
			r.Observe(o)
		}
		return c, l, v, w
	}
	c1, l1, v1, w1 := run(withBad)
	c2, l2, v2, w2 := run(inStudy)
	if !reflect.DeepEqual(c1.CollectedSeries(), c2.CollectedSeries()) ||
		!reflect.DeepEqual(c1.ResourceShares(), c2.ResourceShares()) {
		t.Error("Collection series differ with out-of-range weeks")
	}
	if !reflect.DeepEqual(l1.UsageSeries("jquery"), l2.UsageSeries("jquery")) {
		t.Error("LibraryStats usage differs with out-of-range weeks")
	}
	if !reflect.DeepEqual(v1.VulnerableSeries(true), v2.VulnerableSeries(true)) {
		t.Error("VulnPrevalence series differ with out-of-range weeks")
	}
	a1, p1 := w1.UsageSeries()
	a2, p2 := w2.UsageSeries()
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(p1, p2) {
		t.Error("WordPress series differ with out-of-range weeks")
	}
}
