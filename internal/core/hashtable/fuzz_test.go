package hashtable

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hashmap"
)

// fuzzKeys mixes integer keys, short string keys, a key of exactly the
// inline width and keys too long for the table (software bypass).
var fuzzKeys = []hashmap.Key{
	hashmap.IntKey(0), hashmap.IntKey(1), hashmap.IntKey(2), hashmap.IntKey(7),
	hashmap.IntKey(-1), hashmap.IntKey(1 << 40),
	hashmap.StrKey(""), hashmap.StrKey("a"), hashmap.StrKey("b"),
	hashmap.StrKey("title"), hashmap.StrKey("post_content"),
	hashmap.StrKey(strings.Repeat("k", 24)),
	hashmap.StrKey(strings.Repeat("k", 25)),
	hashmap.StrKey("a_key_that_is_far_too_long_for_the_table"),
}

// orderedModel is a PHP array as a plain Go map plus insertion order.
type orderedModel struct {
	vals  map[hashmap.Key]interface{}
	order []hashmap.Key
}

func newOrderedModel() *orderedModel {
	return &orderedModel{vals: map[hashmap.Key]interface{}{}}
}

func (m *orderedModel) set(k hashmap.Key, v interface{}) {
	if _, ok := m.vals[k]; !ok {
		m.order = append(m.order, k)
	}
	m.vals[k] = v
}

func (m *orderedModel) del(k hashmap.Key) bool {
	if _, ok := m.vals[k]; !ok {
		return false
	}
	delete(m.vals, k)
	m.order = slices.DeleteFunc(m.order, func(o hashmap.Key) bool { return o == k })
	return true
}

func (m *orderedModel) pairs() string {
	var sb strings.Builder
	for _, k := range m.order {
		fmt.Fprintf(&sb, "%v=%v ", k, m.vals[k])
	}
	return sb.String()
}

// FuzzHashTableVsModel runs random sequences of every table operation
// over several maps. After each step the results are checked against an
// insertion-ordered Go-map model of the PHP arrays, and every result
// struct, value and the Stats against refTable, the table as first
// written, run on its own copies of the maps. The first input byte picks
// a small table (8 to 31 entries, RTT buffers of 1 to 8 pointers) so
// evictions, probe-window wrap-around and RTT overflow are all reachable.
func FuzzHashTableVsModel(f *testing.F) {
	// A SET buffered only in the table, then an inline-cached store to
	// the same key: the store must not move the key to the end of the
	// insertion order.
	f.Add([]byte("090Y900a0Y1000"))
	f.Add([]byte{0, 2, 0, 7, 0, 0, 7, 5, 0, 0})
	f.Add([]byte{0x85, 2, 0, 1, 2, 0, 2, 2, 1, 9, 5, 1, 0, 6, 0, 0, 7, 0, 0})
	f.Add([]byte{3, 2, 0, 0, 2, 0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 2, 0, 5, 5, 0, 0, 4, 0, 2, 5, 0, 0})
	f.Add([]byte{0xff, 2, 0, 12, 3, 0, 13, 0, 0, 12, 4, 0, 13, 8, 0, 11, 9, 0, 11, 5, 0, 0, 10, 0, 0})
	var long []byte
	for i := 0; i < 200; i++ {
		long = append(long, byte(i*7), byte(i), byte(i*13))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		if err := runVsModel(in); err != nil {
			t.Fatal(err)
		}
	})
}

// runVsModel decodes in as a config byte and then 3-byte steps (op, map,
// key) and runs them, returning the first divergence.
func runVsModel(in []byte) error {
	cfg := Config{Entries: 8 + int(in[0]%24), ProbeWindow: 4, MaxKeyBytes: 24, RTTPointers: 1 + int(in[0]>>5)}
	tab, ref := New(cfg), newRefTable(cfg)
	const nMaps = 3
	var got, want [nMaps]*hashmap.Map
	var model [nMaps]*orderedModel
	nextID := uint64(1)
	for i := range got {
		got[i], want[i], model[i] = hashmap.NewWithID(nextID, nil), hashmap.NewWithID(nextID, nil), newOrderedModel()
		nextID++
	}
	for step, in := 0, in[1:]; len(in) >= 3; step, in = step+1, in[3:] {
		op, i, k := in[0]%11, int(in[1]%nMaps), fuzzKeys[int(in[2])%len(fuzzKeys)]
		v := int64(step)
		a, b, mod := got[i], want[i], model[i]
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("step %d op %d map %d key %v: %s", step, op, i, k, fmt.Sprintf(format, args...))
		}
		switch op {
		case 0, 1: // GET
			va, ra := tab.Get(a, k)
			vb, rb := ref.Get(b, k)
			if va != vb || ra != rb {
				return fail("Get = %v %+v, reference %v %+v", va, ra, vb, rb)
			}
			if mv, ok := mod.vals[k]; ra.Found != ok || va != mv {
				return fail("Get = %v found %v, model %v found %v", va, ra.Found, mv, ok)
			}
		case 2, 3: // SET
			if ra, rb := tab.Set(a, k, v), ref.Set(b, k, v); ra != rb {
				return fail("Set = %+v, reference %+v", ra, rb)
			}
			mod.set(k, v)
		case 4: // unset
			da, db := tab.Delete(a, k), ref.Delete(b, k)
			if da != db {
				return fail("Delete = %v, reference %v", da, db)
			}
			if existed := mod.del(k); da != existed {
				return fail("Delete = %v, model %v", da, existed)
			}
		case 5: // foreach
			var pa, pb strings.Builder
			collect := func(sb *strings.Builder) func(hashmap.Key, interface{}) bool {
				return func(k hashmap.Key, v interface{}) bool {
					fmt.Fprintf(sb, "%v=%v ", k, v)
					return true
				}
			}
			na, nb := tab.Foreach(a, collect(&pa)), ref.Foreach(b, collect(&pb))
			if na != nb || pa.String() != pb.String() {
				return fail("Foreach wrote %d [%s], reference %d [%s]", na, pa.String(), nb, pb.String())
			}
			if pa.String() != mod.pairs() {
				return fail("Foreach [%s], model [%s]", pa.String(), mod.pairs())
			}
			if a.Size() != len(mod.vals) {
				return fail("Size %d after foreach, model %d", a.Size(), len(mod.vals))
			}
		case 6: // the map dies; its structure is recycled under a new identity
			if ra, rb := tab.Free(a), ref.Free(b); ra != rb {
				return fail("Free = %+v, reference %+v", ra, rb)
			}
			a.Reset(nextID)
			b.Reset(nextID)
			nextID++
			model[i] = newOrderedModel()
		case 7: // context switch
			if wa, wb := tab.FlushAll(), ref.FlushAll(); wa != wb {
				return fail("FlushAll = %d, reference %d", wa, wb)
			}
		case 8: // inline-cached read: snoop, then read memory
			if wa, wb := tab.CoherentRead(a, k), ref.CoherentRead(b, k); wa != wb {
				return fail("CoherentRead = %v, reference %v", wa, wb)
			}
			va, oka := a.Get(k)
			vb, okb := b.Get(k)
			if va != vb || oka != okb {
				return fail("read after CoherentRead = %v %v, reference %v %v", va, oka, vb, okb)
			}
			if mv, ok := mod.vals[k]; oka != ok || va != mv {
				return fail("read after CoherentRead = %v %v, model %v %v", va, oka, mv, ok)
			}
		case 9: // inline-cached store: snoop, then store to memory
			if wa, wb := tab.CoherentWrite(a, k), ref.CoherentWrite(b, k); wa != wb {
				return fail("CoherentWrite = %v, reference %v", wa, wb)
			}
			a.Set(k, v)
			b.Set(k, v)
			mod.set(k, v)
		case 10:
			tab.OnRemoteCoherence(a)
			ref.OnRemoteCoherence(b)
		}
		if sa, sb := tab.Stats(), ref.stats; sa != sb {
			return fail("Stats %+v, reference %+v", sa, sb)
		}
		if la, lb := tab.Len(), ref.Len(); la != lb {
			return fail("Len %d, reference %d", la, lb)
		}
		for j := range got {
			if got[j].Size() != want[j].Size() || got[j].NextIntKey() != want[j].NextIntKey() {
				return fail("map %d size %d next %d, reference size %d next %d", j,
					got[j].Size(), got[j].NextIntKey(), want[j].Size(), want[j].NextIntKey())
			}
		}
	}
	return nil
}
