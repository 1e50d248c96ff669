package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("out-of-range kind should be unknown")
	}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Record(Event{Kind: KindAlloc, A: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 100 || r.Total() != 100 {
		t.Fatalf("len=%d total=%d", len(ev), r.Total())
	}
	if ev[42].A != 42 {
		t.Errorf("order broken: %v", ev[42])
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: KindFree, A: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(ev))
	}
	for i, e := range ev {
		if e.A != uint64(12+i) {
			t.Errorf("ring event %d = %d, want %d", i, e.A, 12+i)
		}
	}
	if r.Total() != 20 {
		t.Errorf("Total = %d, want 20", r.Total())
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(4)
	r.Record(Event{})
	r.Reset()
	if len(r.Events()) != 0 || r.Total() != 0 {
		t.Errorf("Reset incomplete")
	}
}

func TestRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindRequest, Fn: sim.Intern("main"), A: 1},
		{Kind: KindHashGet, Fn: sim.Intern("zend_hash_find"), A: 77, B: 12, C: 1},
		{Kind: KindAlloc, Fn: sim.Intern("smart_malloc"), A: 0x10000, B: 64},
		{Kind: KindStringOp, Fn: sim.Intern("strtoupper"), A: 4, B: 1024},
		{Kind: KindRegexScan, Fn: sim.Intern("pcre_exec"), A: 9, B: 4096},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
	t.Run("uninterned_names", testRoundTripUninterned)
}

// testRoundTripUninterned reads a trace built byte by byte in the
// wire format, with function names this process has never interned:
// Read must intern them so the names come back, and writing the events
// again must reproduce the file exactly.
func testRoundTripUninterned(t *testing.T) {
	names := []string{"trace_fresh_name_alpha", "trace_fresh_name_beta", "trace_fresh_name_alpha"}
	marker := sim.Intern("trace_fresh_name_marker")
	var file bytes.Buffer
	file.WriteString(magic)
	file.WriteByte(byte(len(names)))
	for i, n := range names {
		file.WriteByte(byte(KindHashGet))
		file.WriteByte(byte(len(n)))
		file.WriteString(n)
		file.Write([]byte{byte(i), 2, 3})
	}
	want := bytes.Clone(file.Bytes())

	got, err := Read(&file)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("read %d events, want %d", len(got), len(names))
	}
	for i, e := range got {
		if e.Fn.String() != names[i] || e.A != uint64(i) || e.B != 2 || e.C != 3 {
			t.Errorf("event %d = %+v (fn %q), want fn %q", i, e, e.Fn.String(), names[i])
		}
		if e.Fn <= marker {
			t.Errorf("event %d: fn %q was interned before Read", i, names[i])
		}
	}
	if got[0].Fn != got[2].Fn {
		t.Errorf("equal names read as distinct Fns %d and %d", got[0].Fn, got[2].Fn)
	}
	var again bytes.Buffer
	if err := Write(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("rewritten trace differs:\n got %q\nwant %q", again.Bytes(), want)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("expected empty trace, got %d events", len(got))
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACE")); err == nil {
		t.Errorf("bad magic should fail")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	events := []Event{{Kind: KindAlloc, Fn: sim.Intern("f"), A: 1, B: 2, C: 3}}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d should fail", cut)
		}
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	// One event of every defined kind plus unknown future kinds: all must
	// survive a Write/Read round trip bit-exactly. Forward compatibility
	// matters because the wire shape is kind-independent — a reader
	// predating a new kind still decodes the trace.
	var events []Event
	for k := Kind(0); k < numKinds; k++ {
		events = append(events, Event{Kind: k, Fn: sim.Intern(k.String()), A: uint64(k), B: 2, C: 3})
	}
	for _, k := range []Kind{numKinds, numKinds + 1, 200, 255} {
		events = append(events, Event{Kind: k, Fn: sim.Intern("from_the_future"), A: 9})
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("unknown kinds must read back without error: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, events)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Kind takes the raw byte, unreduced: the property covers unknown
	// (future) kinds as well as every defined one.
	f := func(kinds []uint8, fn string, a, b, c uint64) bool {
		var events []Event
		for _, k := range kinds {
			events = append(events, Event{
				Kind: Kind(k),
				Fn:   sim.Intern(fn),
				A:    a, B: b, C: c,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, events); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(events) {
			return false
		}
		for i := range got {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := NewRecorder(0), NewRecorder(0)
	a.Record(Event{Kind: KindHashGet, Fn: sim.Intern("a1")})
	b.Record(Event{Kind: KindHashSet, Fn: sim.Intern("b1")})
	b.Record(Event{Kind: KindAlloc, Fn: sim.Intern("b2")})
	a.Merge(b)
	ev := a.Events()
	if len(ev) != 3 || a.Total() != 3 {
		t.Fatalf("merged %d events (total %d), want 3", len(ev), a.Total())
	}
	if ev[0].Fn.String() != "a1" || ev[1].Fn.String() != "b1" || ev[2].Fn.String() != "b2" {
		t.Errorf("merged order wrong: %+v", ev)
	}
	// b is unchanged.
	if b.Total() != 2 || len(b.Events()) != 2 {
		t.Errorf("Merge mutated its argument")
	}
}

func TestRecorderMergeBounded(t *testing.T) {
	a := NewRecorder(3)
	b := NewRecorder(2)
	for i := 0; i < 4; i++ {
		b.Record(Event{Kind: KindHashGet, A: uint64(i)}) // ring keeps 2, 3
	}
	a.Record(Event{Kind: KindHashSet, A: 100})
	a.Merge(b)
	ev := a.Events()
	if len(ev) != 3 {
		t.Fatalf("bounded merge kept %d events, want 3", len(ev))
	}
	if ev[1].A != 2 || ev[2].A != 3 {
		t.Errorf("bounded merge took wrong tail: %+v", ev)
	}
	// Total counts every event ever recorded on either side: 1 + 4.
	if a.Total() != 5 {
		t.Errorf("merged total %d, want 5", a.Total())
	}
}

func TestKindTotals(t *testing.T) {
	r := NewRecorder(2) // ring evicts, totals must not
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindHashGet})
	}
	r.Record(Event{Kind: KindRegexScan})
	kt := r.KindTotals()
	if kt[KindHashGet] != 5 || kt[KindRegexScan] != 1 {
		t.Errorf("kind totals = %v", kt)
	}
	var sum int64
	for _, n := range kt {
		sum += n
	}
	if sum != r.Total() {
		t.Errorf("kind totals sum %d != Total %d", sum, r.Total())
	}

	// Merge folds in the other recorder's full per-kind history, including
	// events its ring already evicted.
	o := NewRecorder(1)
	for i := 0; i < 3; i++ {
		o.Record(Event{Kind: KindAlloc}) // ring keeps 1 of 3
	}
	r.Merge(o)
	kt = r.KindTotals()
	if kt[KindAlloc] != 3 {
		t.Errorf("merged alloc total = %d, want 3", kt[KindAlloc])
	}
	if kt[KindHashGet] != 5 {
		t.Errorf("merge disturbed hash-get total: %d", kt[KindHashGet])
	}

	r.Reset()
	for _, n := range r.KindTotals() {
		if n != 0 {
			t.Errorf("Reset left kind totals %v", r.KindTotals())
			break
		}
	}
}
