package heap_test

import (
	"fmt"

	"repro/internal/core/heapmgr"
	"repro/internal/heap"
)

// refChunkSegments mirrors the allocator's segments per slab refill.
const refChunkSegments = 64

// refAllocator is the slab allocator as first written, with liveness in
// a map from address to class, and refManager the hardware heap manager
// over it. FuzzHeapVsLiveMap checks Allocator and heapmgr.Manager against
// them. refAllocator drops the Observer; refManager keeps only the
// operations the fuzz drives.
type refAllocator struct {
	free     [][]uint64 // per-class free lists (LIFO)
	live     map[uint64]int
	nextAddr uint64
	stats    heap.Stats

	// timeline sampling for Fig. 8b/c
	sampleEvery int
	opCount     int64
	timeline    []heap.Sample
}

func newRefAllocator(sampleEvery int) *refAllocator {
	a := &refAllocator{
		free:        make([][]uint64, heap.NumClasses()),
		live:        make(map[uint64]int),
		nextAddr:    0x10000,
		sampleEvery: sampleEvery,
	}
	a.stats.AllocsByClass = make([]int64, heap.NumClasses())
	a.stats.FreesByClass = make([]int64, heap.NumClasses())
	a.stats.LiveByClass = make([]int64, heap.NumClasses())
	a.stats.PeakLiveBytesByClass = make([]int64, heap.NumClasses())
	return a
}

// Alloc returns a block of at least size bytes.
func (a *refAllocator) Alloc(size int) heap.Block {
	defer a.tick()
	c := heap.ClassFor(size)
	if c < 0 {
		a.stats.HugeAllocs++
		addr := a.carve(uint64(size))
		a.live[addr] = -1
		return heap.Block{Addr: addr, Class: -1, Size: size}
	}
	if len(a.free[c]) == 0 {
		a.refill(c)
	}
	fl := a.free[c]
	addr := fl[len(fl)-1]
	a.free[c] = fl[:len(fl)-1]
	a.live[addr] = c
	a.stats.AllocsByClass[c]++
	a.stats.LiveByClass[c]++
	liveBytes := a.stats.LiveByClass[c] * int64(heap.ClassSize(c))
	if liveBytes > a.stats.PeakLiveBytesByClass[c] {
		a.stats.PeakLiveBytesByClass[c] = liveBytes
	}
	return heap.Block{Addr: addr, Class: c, Size: size}
}

// Free returns a block to its slab free list. Freeing an address that is
// not live panics: that is allocator corruption, not a recoverable error.
func (a *refAllocator) Free(b heap.Block) {
	defer a.tick()
	c, ok := a.live[b.Addr]
	if !ok {
		panic(fmt.Sprintf("heap: double free or wild free of %#x", b.Addr))
	}
	if c != b.Class {
		panic(fmt.Sprintf("heap: block %#x freed with class %d, allocated as %d", b.Addr, b.Class, c))
	}
	delete(a.live, b.Addr)
	if c < 0 {
		return // huge block goes back to the kernel
	}
	a.free[c] = append(a.free[c], b.Addr)
	a.stats.FreesByClass[c]++
	a.stats.LiveByClass[c]--
}

// PopFree removes up to n segment addresses from class c's free list and
// appends them to dst, returning the extended slice (append semantics —
// steady-state callers pass a reused buffer and pay no allocation). This
// is the refill source the hardware heap manager's prefetcher pulls from
// (§4.3). It refills from a fresh chunk if empty.
func (a *refAllocator) PopFree(c int, n int, dst []uint64) []uint64 {
	if len(a.free[c]) < n {
		a.refill(c)
	}
	fl := a.free[c]
	if n > len(fl) {
		n = len(fl)
	}
	dst = append(dst, fl[len(fl)-n:]...)
	a.free[c] = fl[:len(fl)-n]
	return dst
}

// PushFree returns segment addresses to class c's free list; the hardware
// heap manager's flush/overflow path uses it (§4.3 lazy writeback).
func (a *refAllocator) PushFree(c int, addrs []uint64) {
	a.free[c] = append(a.free[c], addrs...)
}

// MarkLive registers addr as a live allocation of class c on behalf of the
// hardware heap manager, preserving the no-double-alloc invariant across
// the hardware/software boundary.
func (a *refAllocator) MarkLive(addr uint64, c int) {
	if old, ok := a.live[addr]; ok {
		panic(fmt.Sprintf("heap: address %#x already live (class %d)", addr, old))
	}
	a.live[addr] = c
	a.stats.AllocsByClass[c]++
	a.stats.LiveByClass[c]++
	liveBytes := a.stats.LiveByClass[c] * int64(heap.ClassSize(c))
	if liveBytes > a.stats.PeakLiveBytesByClass[c] {
		a.stats.PeakLiveBytesByClass[c] = liveBytes
	}
	a.tick()
}

// MarkDead unregisters a live allocation on behalf of the hardware heap
// manager. The address stays owned by the hardware free list until it is
// flushed back via PushFree.
func (a *refAllocator) MarkDead(addr uint64, c int) {
	got, ok := a.live[addr]
	if !ok || got != c {
		panic(fmt.Sprintf("heap: MarkDead of non-live %#x (class %d)", addr, c))
	}
	delete(a.live, addr)
	a.stats.FreesByClass[c]++
	a.stats.LiveByClass[c]--
	a.tick()
}

// LiveCount returns the number of live blocks.
func (a *refAllocator) LiveCount() int { return len(a.live) }

// FreeListLen returns the length of class c's free list.
func (a *refAllocator) FreeListLen(c int) int { return len(a.free[c]) }

// Stats returns a snapshot of the allocator statistics.
func (a *refAllocator) Stats() heap.Stats {
	s := a.stats
	s.AllocsByClass = append([]int64(nil), a.stats.AllocsByClass...)
	s.FreesByClass = append([]int64(nil), a.stats.FreesByClass...)
	s.LiveByClass = append([]int64(nil), a.stats.LiveByClass...)
	s.PeakLiveBytesByClass = append([]int64(nil), a.stats.PeakLiveBytesByClass...)
	return s
}

// Timeline returns the sampled live-memory series (Fig. 8b/c).
func (a *refAllocator) Timeline() []heap.Sample { return a.timeline }

func (a *refAllocator) refill(c int) {
	a.stats.Refills++
	seg := uint64(heap.ClassSize(c))
	base := a.carve(seg * refChunkSegments)
	for i := refChunkSegments - 1; i >= 0; i-- {
		a.free[c] = append(a.free[c], base+uint64(i)*seg)
	}
}

// carve allocates address space for a new chunk, 16-byte aligned.
func (a *refAllocator) carve(size uint64) uint64 {
	addr := a.nextAddr
	a.nextAddr += (size + 15) &^ 15
	return addr
}

func (a *refAllocator) tick() {
	a.opCount++
	if a.sampleEvery <= 0 || a.opCount%int64(a.sampleEvery) != 0 {
		return
	}
	var s heap.Sample
	s.Op = a.opCount
	for c := 0; c < heap.NumClasses(); c++ {
		bytes := a.stats.LiveByClass[c] * int64(heap.ClassSize(c))
		switch {
		case heap.ClassSize(c) <= 32:
			s.Bands[0] += bytes
		case heap.ClassSize(c) <= 64:
			s.Bands[1] += bytes
		case heap.ClassSize(c) <= 96:
			s.Bands[2] += bytes
		case heap.ClassSize(c) <= 128:
			s.Bands[3] += bytes
		default:
			s.Bands[4] += bytes
		}
	}
	a.timeline = append(a.timeline, s)
}

// refManager is the hardware heap manager bound to the software slab
// allocator it stays lazily coherent with.
type refManager struct {
	cfg     heapmgr.Config
	sw      *refAllocator
	lists   [][]uint64 // per small class; index 0 is the head end
	scratch []uint64   // prefetch prepend staging, reused across refills
	stats   heapmgr.Stats
}

func newRefManager(cfg heapmgr.Config, sw *refAllocator) *refManager {
	return &refManager{
		cfg:   cfg,
		sw:    sw,
		lists: make([][]uint64, heap.NumSmallClasses),
	}
}

// Malloc performs an hmmalloc. Requests above the comparator limit set
// the zero flag (Bypass) and take the software path entirely.
func (h *refManager) Malloc(size int) (heap.Block, heapmgr.MallocResult) {
	if size > h.cfg.MaxSize {
		h.stats.Bypasses++
		return h.sw.Alloc(size), heapmgr.MallocResult{Bypass: true}
	}
	c := heap.ClassFor(size)
	h.stats.Mallocs++
	res := heapmgr.MallocResult{}
	if len(h.lists[c]) == 0 {
		// Zero flag raised: the software handler pulls the next free block
		// from the software heap manager.
		h.lists[c] = h.sw.PopFree(c, 1, h.lists[c])
	} else {
		res.Hit = true
		h.stats.MallocHits++
	}
	// Pop at the head.
	addr := h.lists[c][len(h.lists[c])-1]
	h.lists[c] = h.lists[c][:len(h.lists[c])-1]
	h.sw.MarkLive(addr, c)

	// The prefetcher tops the list back up through the tail pointer.
	if len(h.lists[c]) < h.cfg.PrefetchLow {
		n := h.cfg.PrefetchBatch
		if room := h.cfg.ListEntries - len(h.lists[c]); n > room {
			n = room
		}
		if n > 0 {
			// Refilled blocks go at the tail end (the front of the slice)
			// ahead of whatever survived; staged through h.scratch so the
			// prepend reuses the list's own backing instead of allocating.
			h.scratch = append(h.scratch[:0], h.lists[c]...)
			refilled := h.sw.PopFree(c, n, h.lists[c][:0])
			got := len(refilled)
			h.lists[c] = append(refilled, h.scratch...)
			h.stats.Prefetches++
			h.stats.PrefetchedBl += int64(got)
			res.Prefetch = true
		}
	}
	return heap.Block{Addr: addr, Class: c, Size: size}, res
}

// Free performs an hmfree. An overflowing list sets the zero flag and the
// software handler links the evicted block back into the memory free
// list.
func (h *refManager) Free(b heap.Block) heapmgr.FreeResult {
	if b.Class < 0 || b.Class >= heap.NumSmallClasses || b.Size > h.cfg.MaxSize {
		h.stats.Bypasses++
		h.sw.Free(b)
		return heapmgr.FreeResult{Bypass: true}
	}
	h.stats.Frees++
	h.sw.MarkDead(b.Addr, b.Class)
	res := heapmgr.FreeResult{Hit: true}
	h.stats.FreeHits++
	if len(h.lists[b.Class]) >= h.cfg.ListEntries {
		// Overflow: spill the tail block (the coldest) to memory.
		h.stats.Overflows++
		res.Overflow = true
		spill := h.lists[b.Class][0]
		h.lists[b.Class] = h.lists[b.Class][1:]
		h.sw.PushFree(b.Class, []uint64{spill})
	}
	h.lists[b.Class] = append(h.lists[b.Class], b.Addr)
	return res
}

// Flush implements hmflush: every hardware free list entry is written
// back to the software heap manager's data structure, as required at
// context switches. It returns the number of blocks flushed.
func (h *refManager) Flush() int {
	h.stats.Flushes++
	n := 0
	for c := range h.lists {
		if len(h.lists[c]) == 0 {
			continue
		}
		h.sw.PushFree(c, h.lists[c])
		n += len(h.lists[c])
		h.lists[c] = nil
	}
	return n
}

// refCursor is heapmgr.FlushCursor.
type refCursor struct {
	class int
	done  bool
}

// FlushStep writes back at most maxBlocks hardware free-list blocks,
// returning the updated cursor and the number of blocks written. Calling
// it repeatedly until Done drains every list; the hardware state stays
// consistent at every step, so a page fault (or preemption) between steps
// loses nothing.
func (h *refManager) FlushStep(cur refCursor, maxBlocks int) (refCursor, int) {
	if cur.done {
		return cur, 0
	}
	if maxBlocks <= 0 {
		maxBlocks = 1
	}
	written := 0
	for cur.class < len(h.lists) && written < maxBlocks {
		fl := h.lists[cur.class]
		if len(fl) == 0 {
			cur.class++
			continue
		}
		n := maxBlocks - written
		if n > len(fl) {
			n = len(fl)
		}
		// Spill from the tail end (the coldest blocks) first.
		h.sw.PushFree(cur.class, fl[:n])
		h.lists[cur.class] = fl[n:]
		written += n
	}
	if cur.class >= len(h.lists) {
		cur.done = true
		h.stats.Flushes++
	}
	return cur, written
}
