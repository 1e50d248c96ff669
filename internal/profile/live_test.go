package profile

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// meterAt builds a cumulative meter charged with the given per-function
// uops (name -> uops, all CatOther unless prefixed "hash:").
func meterAt(charges map[string]float64) *sim.Meter {
	mt := sim.NewMeter(sim.DefaultCostModel())
	chargeMeter(mt, charges)
	return mt
}

func chargeMeter(mt *sim.Meter, charges map[string]float64) {
	for name, uops := range charges {
		cat := sim.CatOther
		if n, ok := strings.CutPrefix(name, "hash:"); ok {
			name, cat = n, sim.CatHash
		}
		mt.AddUops(sim.Intern(name), cat, uops)
	}
}

func TestLiveFirstWindowEqualsOffline(t *testing.T) {
	// Before the ring evicts anything, the live window must equal the
	// offline FromMeter profile for the same cumulative meter — that is
	// the /profilez acceptance criterion.
	t0 := time.Unix(1000, 0)
	mt := meterAt(map[string]float64{"jit": 500, "hash:ht_get": 300, "escape": 200})
	l := NewLive(4, t0)
	l.Observe(mt, t0.Add(time.Second))

	live, info := l.Window()
	off := FromMeter(mt)
	if !info.SinceBoot || info.Epochs != 2 || !info.Since.Equal(t0) {
		t.Errorf("window info = %+v", info)
	}
	if live.NumFunctions() != off.NumFunctions() {
		t.Fatalf("live %d functions, offline %d", live.NumFunctions(), off.NumFunctions())
	}
	if math.Abs(live.HottestFrac()-off.HottestFrac()) > 1e-12 {
		t.Errorf("hottest: live %v offline %v", live.HottestFrac(), off.HottestFrac())
	}
	for i := range off.Entries {
		lo, of := live.Entries[i], off.Entries[i]
		if lo.Name != of.Name || math.Abs(lo.Frac-of.Frac) > 1e-12 {
			t.Errorf("entry %d: live %+v offline %+v", i, lo, of)
		}
	}
}

func TestLiveWindowTracksRecentTraffic(t *testing.T) {
	t0 := time.Unix(2000, 0)
	mt := sim.NewMeter(sim.DefaultCostModel())
	l := NewLive(2, t0) // zero epoch + 1 retained: window = last interval

	chargeMeter(mt, map[string]float64{"old_hot": 1000})
	l.Observe(mt, t0.Add(time.Second)) // evicts the zero epoch next time

	chargeMeter(mt, map[string]float64{"new_hot": 900})
	l.Observe(mt, t0.Add(2*time.Second))

	p, info := l.Window()
	if info.SinceBoot {
		t.Error("ring evicted the boot epoch but still reports since-boot")
	}
	// old_hot stopped accruing, so the window contains only new_hot.
	if p.NumFunctions() != 1 || p.Entries[0].Name != "new_hot" {
		t.Fatalf("window = %+v", p.Entries)
	}
	if math.Abs(p.Entries[0].Frac-1) > 1e-12 {
		t.Errorf("new_hot frac = %v", p.Entries[0].Frac)
	}
}

func TestLiveEpochRingBounded(t *testing.T) {
	t0 := time.Unix(0, 0)
	mt := sim.NewMeter(sim.DefaultCostModel())
	l := NewLive(3, t0)
	for i := 1; i <= 10; i++ {
		chargeMeter(mt, map[string]float64{"fn": 100})
		l.Observe(mt, t0.Add(time.Duration(i)*time.Second))
	}
	p, info := l.Window()
	if info.Epochs != 3 {
		t.Errorf("epochs = %d, want 3", info.Epochs)
	}
	if !info.Since.Equal(t0.Add(8 * time.Second)) {
		t.Errorf("since = %v", info.Since)
	}
	// Window covers epochs 8..10: two intervals of 100 uops each.
	ipc := sim.DefaultCostModel().IPC
	if math.Abs(p.Total-200/ipc) > 1e-9 {
		t.Errorf("window total = %v, want %v", p.Total, 200/ipc)
	}
}

func TestLiveMinEpochs(t *testing.T) {
	l := NewLive(1, time.Unix(0, 0)) // clamps to 2 so a window exists
	mt := meterAt(map[string]float64{"fn": 50})
	l.Observe(mt, time.Unix(1, 0))
	p, _ := l.Window()
	if p.NumFunctions() != 1 {
		t.Errorf("window = %+v", p.Entries)
	}
}

func TestProfileFolded(t *testing.T) {
	mt := meterAt(map[string]float64{"jit code": 500, "hash:ht;get": 300})
	p := FromMeter(mt)
	out := p.Folded()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded:\n%s", out)
	}
	// Hottest first, category as root frame, separators sanitized.
	if !strings.HasPrefix(lines[0], "other;jit_code ") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "hash;ht:get ") {
		t.Errorf("line 1 = %q", lines[1])
	}
}
