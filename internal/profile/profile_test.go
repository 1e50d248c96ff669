package profile

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func meterWith(fracs map[string]float64) *sim.Meter {
	mt := sim.NewMeter(sim.DefaultCostModel())
	for name, share := range fracs {
		mt.AddUops(sim.Intern(name), sim.CatOther, share*1000)
	}
	return mt
}

func TestFromMeterFractions(t *testing.T) {
	mt := meterWith(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	p := FromMeter(mt)
	if p.NumFunctions() != 3 {
		t.Fatalf("NumFunctions = %d", p.NumFunctions())
	}
	if p.Entries[0].Name != "a" || math.Abs(p.Entries[0].Frac-0.5) > 1e-9 {
		t.Errorf("hottest entry wrong: %+v", p.Entries[0])
	}
	if math.Abs(p.Entries[2].Cum-1.0) > 1e-9 {
		t.Errorf("cumulative should end at 1: %v", p.Entries[2].Cum)
	}
	if math.Abs(p.HottestFrac()-0.5) > 1e-9 {
		t.Errorf("HottestFrac = %v", p.HottestFrac())
	}
}

func TestFuncsForFrac(t *testing.T) {
	mt := meterWith(map[string]float64{"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
	p := FromMeter(mt)
	if got := p.FuncsForFrac(0.65); got != 2 {
		t.Errorf("FuncsForFrac(0.65) = %d, want 2", got)
	}
	if got := p.FuncsForFrac(0.95); got != 4 {
		t.Errorf("FuncsForFrac(0.95) = %d, want 4", got)
	}
	if got := p.FuncsForFrac(2.0); got != 4 {
		t.Errorf("unreachable target should return all functions: %d", got)
	}
}

func TestCDF(t *testing.T) {
	mt := meterWith(map[string]float64{"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1})
	p := FromMeter(mt)
	cdf := p.CDF([]int{1, 2, 10, 0})
	if math.Abs(cdf[0]-0.4) > 1e-9 || math.Abs(cdf[1]-0.7) > 1e-9 {
		t.Errorf("CDF wrong: %v", cdf)
	}
	if math.Abs(cdf[2]-1.0) > 1e-9 {
		t.Errorf("CDF beyond length should saturate: %v", cdf[2])
	}
	if cdf[3] != 0 {
		t.Errorf("CDF(0) should be 0")
	}
}

func TestCategoryShares(t *testing.T) {
	mt := sim.NewMeter(sim.DefaultCostModel())
	mt.AddUops(sim.Intern("h1"), sim.CatHash, 300)
	mt.AddUops(sim.Intern("h2"), sim.CatHash, 100)
	mt.AddUops(sim.Intern("s1"), sim.CatString, 600)
	p := FromMeter(mt)
	cs := p.CategoryShares()
	if math.Abs(cs[sim.CatHash]-0.4) > 1e-9 || math.Abs(cs[sim.CatString]-0.6) > 1e-9 {
		t.Errorf("shares wrong: %v", cs)
	}
}

func TestTopNAndRender(t *testing.T) {
	mt := meterWith(map[string]float64{"a": 0.6, "b": 0.4})
	p := FromMeter(mt)
	if len(p.TopN(1)) != 1 || len(p.TopN(10)) != 2 {
		t.Errorf("TopN clamping wrong")
	}
	r := p.Render(2)
	if !strings.Contains(r, "a") || !strings.Contains(r, "cum%") {
		t.Errorf("render missing content:\n%s", r)
	}
}

func TestEmptyProfile(t *testing.T) {
	p := FromMeter(sim.NewMeter(sim.DefaultCostModel()))
	if p.HottestFrac() != 0 || p.NumFunctions() != 0 || p.FuncsForFrac(0.5) != 0 {
		t.Errorf("empty profile accessors wrong")
	}
}

func TestDiff(t *testing.T) {
	before := FromMeter(meterWith(map[string]float64{"refcount": 0.5, "hash": 0.3, "other": 0.2}))
	after := FromMeter(meterWith(map[string]float64{"hash": 0.6, "other": 0.4}))
	d := Diff(before, after)
	if len(d) != 3 {
		t.Fatalf("Diff entries = %d", len(d))
	}
	if d[0].Name != "refcount" || d[0].AfterFrac != 0 {
		t.Errorf("mitigated function should drop to zero: %+v", d[0])
	}
	var hash DiffEntry
	for _, e := range d {
		if e.Name == "hash" {
			hash = e
		}
	}
	if hash.AfterFrac <= hash.BeforeFrac {
		t.Errorf("surviving function's share should rise: %+v", hash)
	}
}

func TestFlatVsHotspotShape(t *testing.T) {
	// Synthetic check of the Fig. 1 contrast logic: a flat profile needs
	// many more functions to reach 65% than a hotspotted one.
	flat := sim.NewMeter(sim.DefaultCostModel())
	for i := 0; i < 200; i++ {
		flat.AddUops(sim.Intern(fmt.Sprintf("f%03d", i)), sim.CatOther, 10)
	}
	hot := sim.NewMeter(sim.DefaultCostModel())
	hot.AddUops(sim.Intern("hot1"), sim.CatOther, 800)
	hot.AddUops(sim.Intern("hot2"), sim.CatOther, 100)
	for i := 0; i < 50; i++ {
		hot.AddUops(sim.Intern(fmt.Sprintf("cold%02d", i)), sim.CatOther, 2)
	}
	fp, hp := FromMeter(flat), FromMeter(hot)
	if fp.FuncsForFrac(0.65) < 50 {
		t.Errorf("flat profile should need many functions: %d", fp.FuncsForFrac(0.65))
	}
	if hp.FuncsForFrac(0.65) > 2 {
		t.Errorf("hotspot profile should need few functions: %d", hp.FuncsForFrac(0.65))
	}
}

func TestDiffEdgeCases(t *testing.T) {
	some := FromMeter(meterWith(map[string]float64{"a": 0.6, "b": 0.4}))
	empty := FromMeter(sim.NewMeter(sim.DefaultCostModel()))

	// Both sides empty: nothing to report.
	if d := Diff(empty, empty); len(d) != 0 {
		t.Errorf("empty/empty diff = %+v", d)
	}

	// Empty before: every function is new, BeforeFrac zero.
	d := Diff(empty, some)
	if len(d) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	for _, e := range d {
		if e.BeforeFrac != 0 || e.AfterFrac <= 0 {
			t.Errorf("new function entry = %+v", e)
		}
	}

	// Empty after: every function vanished, AfterFrac zero, sorted by
	// before-share.
	d = Diff(some, empty)
	if len(d) != 2 || d[0].Name != "a" || d[0].AfterFrac != 0 || d[1].AfterFrac != 0 {
		t.Errorf("vanished diff = %+v", d)
	}

	// Single-function profile diffed against itself: shares unchanged.
	one := FromMeter(meterWith(map[string]float64{"solo": 1}))
	d = Diff(one, one)
	if len(d) != 1 || d[0].BeforeFrac != 1 || d[0].AfterFrac != 1 {
		t.Errorf("identity diff = %+v", d)
	}

	// Disjoint function sets: both sides' functions appear, each with a
	// zero on the side it is absent from.
	other := FromMeter(meterWith(map[string]float64{"x": 0.5, "y": 0.5}))
	d = Diff(some, other)
	if len(d) != 4 {
		t.Fatalf("disjoint diff = %+v", d)
	}
	byName := map[string]DiffEntry{}
	for _, e := range d {
		byName[e.Name] = e
	}
	if byName["a"].AfterFrac != 0 || byName["x"].BeforeFrac != 0 {
		t.Errorf("disjoint shares wrong: %+v", byName)
	}
	// Before-side functions sort ahead of after-only ones (before-share
	// descending, zero last).
	if d[0].Name != "a" || d[1].Name != "b" {
		t.Errorf("diff order = %+v", d)
	}
}

func TestCDFEdgeCases(t *testing.T) {
	empty := FromMeter(sim.NewMeter(sim.DefaultCostModel()))
	// Empty profile: every requested n covers nothing.
	got := empty.CDF([]int{0, 1, 100})
	for i, v := range got {
		if v != 0 {
			t.Errorf("empty CDF[%d] = %v", i, v)
		}
	}

	// Single-function profile: any positive n covers everything, zero and
	// negative n cover nothing.
	one := FromMeter(meterWith(map[string]float64{"solo": 1}))
	got = one.CDF([]int{-1, 0, 1, 2, 1000})
	want := []float64{0, 0, 1, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("single CDF = %v, want %v", got, want)
		}
	}
	if one.FuncsForFrac(0.65) != 1 || one.HottestFrac() != 1 {
		t.Errorf("single-function headline numbers: %d, %v",
			one.FuncsForFrac(0.65), one.HottestFrac())
	}

	// n beyond the profile clamps to the full set (cum = 1).
	three := FromMeter(meterWith(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2}))
	got = three.CDF([]int{2, 3, 50})
	if math.Abs(got[0]-0.8) > 1e-12 || math.Abs(got[1]-1) > 1e-12 || math.Abs(got[2]-1) > 1e-12 {
		t.Errorf("CDF = %v", got)
	}
}

// TestTopNReturnsCopy is the regression test for TopN aliasing the
// profile's backing array: sorting or mutating the returned slice must
// not reorder the live profile (or anything Merge produced).
func TestTopNReturnsCopy(t *testing.T) {
	mt := meterWith(map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	p := FromMeter(mt)
	top := p.TopN(2)
	if len(top) != 2 || top[0].Name != "a" {
		t.Fatalf("TopN(2) = %+v", top)
	}
	top[0].Name = "mutated"
	top[0].Cycles = -1
	top[0], top[1] = top[1], top[0]
	if p.Entries[0].Name != "a" || p.Entries[1].Name != "b" {
		t.Fatalf("mutating TopN result changed the profile: %+v", p.Entries[:2])
	}
	if p.Entries[0].Cycles < 0 {
		t.Fatal("mutating TopN result changed live entry fields")
	}
	// n <= 0 (the fleet-scraper "everything" form) must copy too.
	all := p.TopN(0)
	if len(all) != len(p.Entries) {
		t.Fatalf("TopN(0) len = %d, want %d", len(all), len(p.Entries))
	}
	all[0].Name = "clobbered"
	if p.Entries[0].Name != "a" {
		t.Fatal("TopN(0) aliases the profile's backing array")
	}
}
