package heap_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core/heapmgr"
	"repro/internal/heap"
)

// fuzzSizes spans every slab class, both sides of the hardware
// comparator limit and kernel-direct sizes.
var fuzzSizes = []int{1, 16, 17, 24, 40, 64, 100, 128, 129, 200, 500, 1024, 3000, 4096, 4097, 10000, 70000}

// foreignBase is far above any address the allocators carve.
const foreignBase = 1 << 60

// heapWorld is what the harness holds between steps: live and freed
// blocks, popped addresses, and both pairs' open flush cursors.
type heapWorld struct {
	live []heap.Block // allocated and not freed
	dead []heap.Block // freed (for injected double frees)
	held [][]uint64   // per class: addresses popped with PopFree
	cur  heapmgr.FlushCursor
	rcur refCursor
}

func (w *heapWorld) isLive(addr uint64) bool {
	return slices.ContainsFunc(w.live, func(b heap.Block) bool { return b.Addr == addr })
}

// catch runs f and returns its panic message, or "" if it returned.
func catch(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// FuzzHeapVsLiveMap drives the allocator and the hardware heap manager
// with random sequences — allocations of every size class and huge
// sizes, frees through both, free-list pops and pushes, flushes, and
// injected double frees, wild frees, wrong-class frees, double marks and
// dead marks — and checks every returned block and result, every panic
// message, LiveCount, Stats, free-list lengths and the timeline against
// refAllocator and refManager, which keep liveness in a map. The first
// input byte picks the paper's heap manager or a 4-entry one that
// overflows and prefetches constantly.
func FuzzHeapVsLiveMap(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 7, 2, 0, 2, 1})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 0, 2, 0, 8, 0, 9, 1, 9, 1, 9, 1})
	f.Add([]byte{1, 4, 14, 4, 15, 5, 0, 10, 0, 11, 0, 12, 3, 13, 0, 14, 0})
	f.Add([]byte{0, 6, 2, 7, 2, 6, 9, 0, 5, 15, 3, 16, 0, 10, 1})
	var long []byte
	for i := 0; i < 300; i++ {
		long = append(long, byte(i*5), byte(i*11))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		if err := runHeapVsRef(in); err != nil {
			t.Fatal(err)
		}
	})
}

// runHeapVsRef decodes in as a config byte and then 2-byte steps (op,
// argument) and runs them, returning the first divergence.
func runHeapVsRef(in []byte) error {
	cfg := heapmgr.DefaultConfig()
	if in[0]%2 == 1 {
		cfg = heapmgr.Config{ListEntries: 4, MaxSize: heap.MaxSmallSize, PrefetchLow: 2, PrefetchBatch: 3}
	}
	const sampleEvery = 3
	a := heap.NewAllocator(nil, sampleEvery)
	m := heapmgr.New(cfg, a)
	ra := newRefAllocator(sampleEvery)
	rm := newRefManager(cfg, ra)
	w := &heapWorld{held: make([][]uint64, heap.NumClasses())}
	panicked := false
	for step, in := 0, in[1:]; len(in) >= 2; step, in = step+1, in[2:] {
		op, arg := in[0]%17, int(in[1])
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("step %d op %d arg %d: %s", step, op, arg, fmt.Sprintf(format, args...))
		}
		// pick returns a held live block, or false when there is none. A
		// block marked live outside the carved space is returned only if
		// foreign is set: freeing it would put a foreign address on a free
		// list, where a later mark of the same address could make Alloc
		// hand out a live block (corruption neither allocator detects).
		pick := func(foreign bool) (int, heap.Block, bool) {
			if len(w.live) == 0 {
				return 0, heap.Block{}, false
			}
			i := arg % len(w.live)
			return i, w.live[i], foreign || w.live[i].Addr < foreignBase
		}
		// pickDead returns a freed block whose address is not live again,
		// or false when there is none.
		pickDead := func() (heap.Block, bool) {
			if len(w.dead) == 0 {
				return heap.Block{}, false
			}
			b := w.dead[arg%len(w.dead)]
			return b, !w.isLive(b.Addr)
		}
		// both runs f on the pair under test and g on the reference and
		// requires the same panic, or none.
		both := func(f, g func()) (bool, error) {
			pa, pb := catch(f), catch(g)
			if pa != pb {
				return false, fail("panic %q, reference %q", pa, pb)
			}
			if pa != "" {
				panicked = true
			}
			return pa == "", nil
		}
		var err error
		switch op {
		case 0, 1: // hmmalloc
			size := fuzzSizes[arg%len(fuzzSizes)]
			var b, rb heap.Block
			var res, rres heapmgr.MallocResult
			done, err := both(func() { b, res = m.Malloc(size) }, func() { rb, rres = rm.Malloc(size) })
			if err != nil {
				return err
			}
			if b != rb || res != rres {
				return fail("Malloc = %+v %+v, reference %+v %+v", b, res, rb, rres)
			}
			if done {
				w.live = append(w.live, b)
			}
		case 2, 3: // hmfree
			if i, b, ok := pick(false); ok {
				var res, rres heapmgr.FreeResult
				done, err := both(func() { res = m.Free(b) }, func() { rres = rm.Free(b) })
				if err != nil {
					return err
				}
				if res != rres {
					return fail("Free = %+v, reference %+v", res, rres)
				}
				if done {
					w.live = slices.Delete(w.live, i, i+1)
					w.dead = append(w.dead, b)
				}
			}
		case 4: // software malloc
			size := fuzzSizes[arg%len(fuzzSizes)]
			b, rb := a.Alloc(size), ra.Alloc(size)
			if b != rb {
				return fail("Alloc = %+v, reference %+v", b, rb)
			}
			w.live = append(w.live, b)
		case 5: // software free; blocks the manager handed out take this path too
			if i, b, ok := pick(false); ok {
				var done bool
				if done, err = both(func() { a.Free(b) }, func() { ra.Free(b) }); err != nil {
					return err
				}
				if done {
					w.live = slices.Delete(w.live, i, i+1)
					w.dead = append(w.dead, b)
				}
			}
		case 6: // the prefetcher's pull from the software free list
			c, n := arg%heap.NumClasses(), 1+arg/heap.NumClasses()%70
			got := a.PopFree(c, n, nil)
			if want := ra.PopFree(c, n, nil); !slices.Equal(got, want) {
				return fail("PopFree = %x, reference %x", got, want)
			}
			w.held[c] = append(w.held[c], got...)
		case 7: // and its spill back
			c := arg % heap.NumClasses()
			a.PushFree(c, w.held[c])
			ra.PushFree(c, w.held[c])
			w.held[c] = w.held[c][:0]
		case 8: // hmflush
			if n, rn := m.Flush(), rm.Flush(); n != rn {
				return fail("Flush = %d, reference %d", n, rn)
			}
			w.cur, w.rcur = heapmgr.FlushCursor{}, refCursor{}
		case 9: // resumable hmflush, one step
			var n, rn int
			w.cur, n = m.FlushStep(w.cur, arg%5)
			w.rcur, rn = rm.FlushStep(w.rcur, arg%5)
			if n != rn || w.cur.Done() != w.rcur.done {
				return fail("FlushStep = %d done %v, reference %d done %v", n, w.cur.Done(), rn, w.rcur.done)
			}
			if w.cur.Done() {
				w.cur, w.rcur = heapmgr.FlushCursor{}, refCursor{}
			}
		case 10: // injected double free, through either path
			if b, ok := pickDead(); ok {
				if arg%2 == 0 {
					_, err = both(func() { a.Free(b) }, func() { ra.Free(b) })
				} else {
					_, err = both(func() { m.Free(b) }, func() { rm.Free(b) })
				}
			}
		case 11: // injected wrong-class free
			if _, b, ok := pick(true); ok {
				b.Class = (b.Class+2+arg%5)%(heap.NumClasses()+1) - 1
				_, err = both(func() { a.Free(b) }, func() { ra.Free(b) })
			}
		case 12: // injected wild free
			b := heap.Block{Addr: 0x10000 + uint64(arg)*24, Class: arg % heap.NumClasses()}
			if !w.isLive(b.Addr) {
				_, err = both(func() { a.Free(b) }, func() { ra.Free(b) })
			}
		case 13: // injected double mark
			if _, b, ok := pick(true); ok && b.Class >= 0 {
				_, err = both(func() { a.MarkLive(b.Addr, b.Class) }, func() { ra.MarkLive(b.Addr, b.Class) })
			}
		case 14: // injected mark of a dead block as dead
			if b, ok := pickDead(); ok {
				if b.Class >= 0 {
					_, err = both(func() { a.MarkDead(b.Addr, b.Class) }, func() { ra.MarkDead(b.Addr, b.Class) })
				}
			}
		case 15: // a block marked live outside the carved address space
			b := heap.Block{Addr: foreignBase + uint64(arg)*16, Class: arg % heap.NumSmallClasses}
			var done bool // false for an injected double mark
			if done, err = both(func() { a.MarkLive(b.Addr, b.Class) }, func() { ra.MarkLive(b.Addr, b.Class) }); done {
				w.live = append(w.live, b)
			}
		case 16: // and marked dead again
			for i, b := range w.live {
				if b.Addr >= foreignBase {
					_, err = both(func() { a.MarkDead(b.Addr, b.Class) }, func() { ra.MarkDead(b.Addr, b.Class) })
					w.live = slices.Delete(w.live, i, i+1)
					break
				}
			}
		}
		if err != nil {
			return err
		}
		if n, rn := a.LiveCount(), ra.LiveCount(); n != rn {
			return fail("LiveCount %d, reference %d", n, rn)
		}
		if s, rs := a.Stats(), ra.Stats(); !reflect.DeepEqual(s, rs) {
			return fail("Stats %+v, reference %+v", s, rs)
		}
		if s, rs := m.Stats(), rm.stats; s != rs {
			return fail("manager Stats %+v, reference %+v", s, rs)
		}
		for c := 0; c < heap.NumClasses(); c++ {
			if n, rn := a.FreeListLen(c), ra.FreeListLen(c); n != rn {
				return fail("class %d free list %d, reference %d", c, n, rn)
			}
			if c < heap.NumSmallClasses && m.ListLen(c) != len(rm.lists[c]) {
				return fail("class %d hardware list %d, reference %d", c, m.ListLen(c), len(rm.lists[c]))
			}
		}
		// A panicking Free in the reference still ticked (its tick was
		// deferred), so the timelines agree only up to the first panic;
		// nothing in the program recovers an allocator panic.
		if !panicked && !slices.Equal(a.Timeline(), ra.Timeline()) {
			return fail("timeline %v, reference %v", a.Timeline(), ra.Timeline())
		}
	}
	return nil
}
