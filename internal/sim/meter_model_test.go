package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// mapMeter is the reference model for Meter: the string-keyed meter it
// replaced, with one *FnStats per (name, category) in a Go map and the
// same incremental per-category and per-accelerator totals.
type mapMeter struct {
	model CostModel
	mit   Mitigations
	fns   map[mapKey]*FnStats

	catUops     [numCategories]float64
	catAccelCyc [numCategories]float64
	accelCycles [numAccelKinds]float64
	accelEnergy [numAccelKinds]float64
	accelCalls  [numAccelKinds]int64
}

type mapKey struct {
	name string
	cat  Category
}

func newMapMeter(model CostModel, mit Mitigations) *mapMeter {
	return &mapMeter{model: model, mit: mit, fns: map[mapKey]*FnStats{}}
}

func (m *mapMeter) fn(name string, cat Category) *FnStats {
	k := mapKey{name, cat}
	f := m.fns[k]
	if f == nil {
		f = &FnStats{Name: name, Category: cat}
		m.fns[k] = f
	}
	return f
}

func (m *mapMeter) reset() {
	*m = *newMapMeter(m.model, m.mit)
}

func (m *mapMeter) merge(o *mapMeter) {
	for k, f := range o.fns {
		dst := m.fn(k.name, k.cat)
		dst.Uops += f.Uops
		dst.AccelCyc += f.AccelCyc
		dst.AccelEng += f.AccelEng
		dst.Calls += f.Calls
	}
	for i := range m.catUops {
		m.catUops[i] += o.catUops[i]
		m.catAccelCyc[i] += o.catAccelCyc[i]
	}
	for i := range m.accelCycles {
		m.accelCycles[i] += o.accelCycles[i]
		m.accelEnergy[i] += o.accelEnergy[i]
		m.accelCalls[i] += o.accelCalls[i]
	}
}

func (m *mapMeter) addUops(name string, cat Category, uops float64) {
	f := m.fn(name, cat)
	f.Uops += uops
	f.Calls++
	m.catUops[cat] += uops
}

func (m *mapMeter) addAccel(name string, cat Category, kind AccelKind, cycles float64) {
	f := m.fn(name, cat)
	eng := cycles * m.model.EnergyPerAccelCycle[kind]
	f.AccelCyc += cycles
	f.AccelEng += eng
	f.Calls++
	m.catAccelCyc[cat] += cycles
	m.accelCycles[kind] += cycles
	m.accelEnergy[kind] += eng
	m.accelCalls[kind]++
}

func (m *mapMeter) addRefCount(n int) {
	if n <= 0 || m.mit.HardwareRefCount {
		return
	}
	m.addUops("refcount_helper", CatRefCount, float64(n)*m.model.RefCountUops)
}

func (m *mapMeter) addTypeCheck(n int) {
	if n <= 0 || m.mit.CheckedLoad {
		return
	}
	m.addUops("type_check", CatTypeCheck, float64(n)*m.model.TypeCheckUops)
}

// functions lists the rows in Meter.Functions order.
func (m *mapMeter) functions() []*FnStats {
	out := make([]*FnStats, 0, len(m.fns))
	for _, f := range m.fns {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Cycles(&m.model), out[j].Cycles(&m.model)
		if ci != cj {
			return ci > cj
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Category < out[j].Category
	})
	return out
}

func (m *mapMeter) categoryCyclesVec() CategoryVec {
	var out CategoryVec
	for i := range out {
		out[i] = m.model.Cycles(m.catUops[i]) + m.catAccelCyc[i]
	}
	return out
}

// fuzzName maps a byte to a function name. Several cases produce equal
// names as separately built strings, which must share one row.
func fuzzName(b byte) string {
	switch b % 7 {
	case 0:
		return "zend_hash_find"
	case 1:
		return strings.Clone("zend_hash_find")
	case 2:
		return fmt.Sprintf("fuzz_fn_%d", b%3)
	case 3:
		return string([]byte("fuzz_fn_1"))
	case 4:
		return ""
	case 5:
		return "type_check" // also charged by AddTypeCheck
	default:
		return "fuzz_" + strings.Repeat("x", int(b%4))
	}
}

// checkMeterVsModel compares every row, the accelerator totals, and the
// per-category vector exactly, and the whole-meter totals to rounding.
func checkMeterVsModel(t *testing.T, step int, mt *Meter, ref *mapMeter) {
	t.Helper()
	got, want := mt.Functions(), ref.functions()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d rows, model has %d", step, len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("step %d: row %d = %+v, model %+v", step, i, *got[i], *want[i])
		}
	}
	for k := AccelKind(0); k < numAccelKinds; k++ {
		if mt.AccelCycles(k) != ref.accelCycles[k] || mt.AccelCalls(k) != ref.accelCalls[k] ||
			mt.accelEnergy[k] != ref.accelEnergy[k] {
			t.Fatalf("step %d: accel %d totals differ from model", step, k)
		}
	}
	if got, want := mt.CategoryCyclesVec(), ref.categoryCyclesVec(); got != want {
		t.Fatalf("step %d: CategoryCyclesVec %v, model %v", step, got, want)
	}
	var uops, cycles, energy float64
	for _, f := range want {
		uops += f.Uops
		cycles += f.Cycles(&ref.model)
		energy += f.Energy(&ref.model)
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"TotalUops", mt.TotalUops(), uops},
		{"TotalCycles", mt.TotalCycles(), cycles},
		{"TotalEnergy", mt.TotalEnergy(), energy},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Fatalf("step %d: %s = %v, model %v", step, c.what, c.got, c.want)
		}
	}
}

// FuzzMeterVsMapModel runs random AddUops/AddAccel/AddRefCount/
// AddTypeCheck/Merge/Reset sequences over two Meters and two map-keyed
// reference meters, and requires them to agree after every step.
func FuzzMeterVsMapModel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 2, 20, 1, 4, 7, 4, 0, 0})
	f.Add([]byte{3, 0, 0, 10, 2, 9, 0, 6, 3, 4, 1, 0, 5, 0, 0, 0, 11, 30})
	f.Add([]byte{1, 1, 1, 33, 7, 5, 2, 3, 1, 200, 4, 1, 0})
	f.Add([]byte{2, 0, 5, 1, 0, 40, 0, 3, 41, 0, 8, 42, 5, 1, 0, 4, 0, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		model := DefaultCostModel()
		mits := [2]Mitigations{
			{HardwareRefCount: data[0]&1 != 0, CheckedLoad: data[0]&2 != 0},
			{HardwareRefCount: data[0]&4 != 0, CheckedLoad: data[0]&8 != 0},
		}
		var mts [2]*Meter
		var refs [2]*mapMeter
		for i := range mts {
			mts[i] = NewMeter(model)
			mts[i].Mit = mits[i]
			refs[i] = newMapMeter(model, mits[i])
		}
		data = data[1:]
		for step := 0; len(data) >= 3; step++ {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			w := int(a & 1)
			name := fuzzName(a >> 1)
			cat := Category(b % uint8(numCategories))
			switch op % 6 {
			case 0:
				uops := float64(b)*1.5 + 0.1
				mts[w].AddUops(Intern(name), cat, uops)
				refs[w].addUops(name, cat, uops)
			case 1:
				kind := AccelKind((a >> 4) % uint8(numAccelKinds))
				cycles := float64(b) / 3
				mts[w].AddAccel(Intern(name), cat, kind, cycles)
				refs[w].addAccel(name, cat, kind, cycles)
			case 2:
				mts[w].AddRefCount(int(b) - 8)
				refs[w].addRefCount(int(b) - 8)
			case 3:
				mts[w].AddTypeCheck(int(b) - 8)
				refs[w].addTypeCheck(int(b) - 8)
			case 4:
				mts[w].Merge(mts[1-w])
				refs[w].merge(refs[1-w])
			case 5:
				mts[w].Reset()
				refs[w].reset()
			}
			for i := range mts {
				checkMeterVsModel(t, step, mts[i], refs[i])
			}
		}
	})
}
