package hashtable

import (
	"repro/internal/hashmap"
)

// refTable is the hash table as first written, before the tag array,
// the shared key hash and the per-entry RTT pointer: every probe reads
// whole entries, every access hashes the key per use, and invalidation
// reaches the RTT through its map. FuzzHashTableVsModel
// checks Table against it result for result and Stats for Stats. It
// shares Config, Stats, the result types and keyEq with Table.

// refEntry is one hardware hash table row.
type refEntry struct {
	valid  bool
	dirty  bool
	mapID  uint64 // 8-byte base address of the software hash map
	key    hashmap.Key
	val    interface{}
	seq    uint64 // ordered-table position for writeback
	lru    uint64 // last-access timestamp
	rttPos int    // back-pointer slot in the RTT refEntry, -1 if untracked
	m      *hashmap.Map
}

// refRTT is the Reverse Translation refTable row for one hash map: a
// circular buffer of back pointers into the hash table, filled through a
// write pointer in insertion order.
type refRTT struct {
	back     []int32 // hash table indexes, -1 when invalidated
	writePtr int
	overflow bool
	m        *hashmap.Map
}

// refTable is the hardware hash table plus its RTT.
type refTable struct {
	cfg     Config
	entries []refEntry
	rtt     map[uint64]*refRTT
	// rttFree recycles refRTT structures (and their back-pointer
	// backing) as maps die and are born; request-scoped arrays otherwise
	// allocate a fresh tracking refEntry per map.
	rttFree []*refRTT
	clock   uint64
	stats   Stats
}

// newRefTable builds a reference table with the given configuration.
func newRefTable(cfg Config) *refTable {
	cfg = cfg.sanitized()
	t := &refTable{
		cfg:     cfg,
		entries: make([]refEntry, cfg.Entries),
		rtt:     make(map[uint64]*refRTT),
	}
	for i := range t.entries {
		t.entries[i].rttPos = -1
	}
	return t
}

// hash combines the map base address and the key, mirroring the paper's
// simplified hardware hash function.
func (t *refTable) hash(mapID uint64, k hashmap.Key) uint64 {
	h := k.Hash() ^ (mapID * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	return h
}

func (t *refTable) tick() uint64 {
	t.clock++
	return t.clock
}

// Get performs a hashtableget. On a hit the value comes straight from the
// table. On a miss, control falls back to software (the map walk), and
// the retrieved pair is installed in the table.
func (t *refTable) Get(m *hashmap.Map, k hashmap.Key) (interface{}, GetResult) {
	if k.Len() > t.cfg.MaxKeyBytes {
		t.stats.Bypasses++
		v, ok := m.Get(k)
		return v, GetResult{Bypass: true, Found: ok}
	}
	t.stats.Gets++
	if idx := t.lookup(m.ID(), k); idx >= 0 {
		t.stats.GetHits++
		t.entries[idx].lru = t.tick()
		return t.entries[idx].val, GetResult{Hit: true, Found: true}
	}
	// Software fallback: regular hash map access in memory.
	v, seq, ok := m.GetWithSeq(k, k.Hash())
	if !ok {
		return nil, GetResult{}
	}
	res := GetResult{Found: true}
	res.EvictedDirty = t.install(m, k, v, seq, false)
	return v, res
}

// Set performs a hashtableset. The pair lands in the table with the dirty
// bit set; memory is updated lazily (§4.2: "a SET operation silently
// updates the hash table ... without updating the memory").
func (t *refTable) Set(m *hashmap.Map, k hashmap.Key, v interface{}) SetResult {
	if k.Len() > t.cfg.MaxKeyBytes {
		t.stats.Bypasses++
		m.Set(k, v)
		return SetResult{Bypass: true}
	}
	t.stats.Sets++
	if k.IsInt {
		// Coherence of the map's auto-index watermark rides on the same
		// access (like the seqOf read below): an int-keyed pair that
		// lives only in the table must still advance the index a
		// software append reads from memory.
		m.BumpIntKey(k.Int)
	}
	if idx := t.lookup(m.ID(), k); idx >= 0 {
		e := &t.entries[idx]
		e.val = v
		e.dirty = true
		e.lru = t.tick()
		t.stats.SetHits++
		return SetResult{Hit: true}
	}
	// The key may already exist in the software map; reuse its ordered
	// position so a future writeback does not duplicate or reorder it.
	seq, existed := t.seqOf(m, k)
	if !existed {
		seq = m.ReserveSeq()
	}
	evicted := t.install(m, k, v, seq, true)
	return SetResult{EvictedDirty: evicted}
}

// seqOf returns the ordered-table position of k in m if present. This is
// the hardware's coherence read of the software structure; it happens on
// the SET-miss path that already pays a memory access.
func (t *refTable) seqOf(m *hashmap.Map, k hashmap.Key) (uint64, bool) {
	_, seq, ok := m.GetWithSeq(k, k.Hash())
	return seq, ok
}

// Delete removes a key from both the table and the software map (PHP
// unset). The cached copy is dropped without writeback since the pair is
// being destroyed.
func (t *refTable) Delete(m *hashmap.Map, k hashmap.Key) bool {
	idx := t.lookup(m.ID(), k)
	if idx >= 0 {
		t.invalidate(idx)
	}
	return m.Delete(k) || idx >= 0
}

// Free invalidates every table refEntry belonging to the map in response to
// the map's deallocation. Short-lived maps thereby live and die entirely
// inside the hardware without ever touching memory (§4.2).
func (t *refTable) Free(m *hashmap.Map) FreeResult {
	t.stats.Frees++
	re := t.rtt[m.ID()]
	var res FreeResult
	if re == nil {
		return res
	}
	if re.overflow {
		t.stats.FreeScans++
		res.Scanned = true
		for i := range t.entries {
			if t.entries[i].valid && t.entries[i].mapID == m.ID() {
				t.invalidate(i)
				res.Invalidated++
			}
		}
	} else {
		for _, bp := range re.back {
			if bp >= 0 {
				t.invalidate(int(bp))
				res.Invalidated++
			}
		}
	}
	t.recycleRTT(m.ID())
	return res
}

// Foreach flushes the map's dirty pairs to memory in insertion order via
// the RTT, then runs the software foreach over the now-coherent map.
func (t *refTable) Foreach(m *hashmap.Map, f func(k hashmap.Key, v interface{}) bool) int {
	t.stats.Foreaches++
	n := t.FlushMap(m)
	m.Foreach(f)
	return n
}

// CoherentRead makes a software read of (m, k) coherent with the table:
// a dirty cached copy of the pair is written back and cleaned first, as
// the snoop/inclusion logic does when a demand load hits an address the
// table holds (§4.2). It reports whether a writeback happened — software
// methods that specialize static-key accesses to offset reads (inline
// caching, §3) still see values buffered by dynamic-key SETs.
func (t *refTable) CoherentRead(m *hashmap.Map, k hashmap.Key) bool {
	if k.Len() > t.cfg.MaxKeyBytes {
		return false
	}
	idx := t.lookup(m.ID(), k)
	if idx < 0 || !t.entries[idx].dirty {
		return false
	}
	e := &t.entries[idx]
	e.m.WritebackSeq(e.key, e.val, e.seq)
	e.dirty = false
	t.stats.Writebacks++
	return true
}

// CoherentWrite makes a software store of (m, k) coherent with the
// table: any cached copy of the pair is invalidated so later
// hashtablegets refetch the stored value from memory instead of serving
// a stale hardware copy. It reports whether an refEntry was dropped.
func (t *refTable) CoherentWrite(m *hashmap.Map, k hashmap.Key) bool {
	if k.Len() > t.cfg.MaxKeyBytes {
		return false
	}
	idx := t.lookup(m.ID(), k)
	if idx < 0 {
		return false
	}
	if e := &t.entries[idx]; e.dirty {
		e.m.WritebackSeq(e.key, e.val, e.seq)
		t.stats.Writebacks++
	}
	t.invalidate(idx)
	return true
}

// FlushMap writes the map's dirty entries back to the software map and
// cleans them. It returns the number of pairs written back.
func (t *refTable) FlushMap(m *hashmap.Map) int {
	re := t.rtt[m.ID()]
	if re == nil {
		return 0
	}
	written := 0
	flush := func(i int) {
		e := &t.entries[i]
		if e.valid && e.mapID == m.ID() && e.dirty {
			m.WritebackSeq(e.key, e.val, e.seq)
			e.dirty = false
			written++
			t.stats.Writebacks++
		}
	}
	if re.overflow {
		for i := range t.entries {
			flush(i)
		}
	} else {
		for _, bp := range re.back {
			if bp >= 0 {
				flush(int(bp))
			}
		}
	}
	return written
}

// OnRemoteCoherence handles a remote coherence request (or L2 eviction
// enforcing inclusion) for the map's address range: the accelerator
// flushes and invalidates everything it holds for that map (§4.2).
func (t *refTable) OnRemoteCoherence(m *hashmap.Map) {
	t.stats.CoherenceEv++
	t.FlushMap(m)
	if re := t.rtt[m.ID()]; re != nil {
		if re.overflow {
			for i := range t.entries {
				if t.entries[i].valid && t.entries[i].mapID == m.ID() {
					t.invalidate(i)
				}
			}
		} else {
			for _, bp := range re.back {
				if bp >= 0 {
					t.invalidate(int(bp))
				}
			}
		}
		t.recycleRTT(m.ID())
	}
}

// FlushAll writes back every dirty refEntry and invalidates the whole table
// — the context-switch protocol. The software maps' hash indexes are
// marked stale, exercising the reconstruction path the paper notes is
// needed only for correctness.
func (t *refTable) FlushAll() int {
	written := 0
	staled := map[uint64]*hashmap.Map{}
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.dirty {
			e.m.WritebackSeq(e.key, e.val, e.seq)
			t.stats.Writebacks++
			written++
			staled[e.mapID] = e.m
		}
		t.invalidate(i)
	}
	for _, m := range staled {
		m.MarkStale()
	}
	t.rtt = make(map[uint64]*refRTT)
	return written
}

// Len returns the number of valid entries.
func (t *refTable) Len() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// lookup probes the window for (mapID, key), returning the refEntry index or
// -1. Hardware examines the window's entries in parallel; cost is
// constant regardless of where in the window the key sits.
func (t *refTable) lookup(mapID uint64, k hashmap.Key) int {
	h := t.hash(mapID, k)
	base := int(h % uint64(len(t.entries)))
	for w := 0; w < t.cfg.ProbeWindow; w++ {
		i := (base + w) % len(t.entries)
		e := &t.entries[i]
		if e.valid && e.mapID == mapID && keyEq(e.key, k) {
			return i
		}
	}
	return -1
}

// install places a pair into the table, choosing a victim within the
// probe window: invalid first, then LRU clean, then LRU dirty (which
// costs a software writeback). It reports whether a dirty writeback
// happened.
func (t *refTable) install(m *hashmap.Map, k hashmap.Key, v interface{}, seq uint64, dirty bool) bool {
	h := t.hash(m.ID(), k)
	base := int(h % uint64(len(t.entries)))

	victim, victimKind := -1, 3 // 0 invalid, 1 clean, 2 dirty
	var victimLRU uint64
	for w := 0; w < t.cfg.ProbeWindow; w++ {
		i := (base + w) % len(t.entries)
		e := &t.entries[i]
		kind := 2
		if !e.valid {
			kind = 0
		} else if !e.dirty {
			kind = 1
		}
		if kind < victimKind || (kind == victimKind && e.lru < victimLRU) {
			victim, victimKind, victimLRU = i, kind, e.lru
		}
	}

	evictedDirty := false
	if victimKind == 2 {
		// LRU dirty refEntry: software writes it back before replacement.
		e := &t.entries[victim]
		e.m.WritebackSeq(e.key, e.val, e.seq)
		t.stats.Writebacks++
		t.stats.EvictDirty++
		evictedDirty = true
	} else if victimKind == 1 {
		t.stats.EvictClean++
	}
	if victimKind != 0 {
		t.invalidate(victim)
	}

	e := &t.entries[victim]
	e.valid = true
	e.dirty = dirty
	e.mapID = m.ID()
	e.key = k
	e.val = v
	e.seq = seq
	e.lru = t.tick()
	e.m = m
	e.rttPos = t.rttTrack(m, victim)
	return evictedDirty
}

// invalidate clears an refEntry and its RTT back pointer.
func (t *refTable) invalidate(i int) {
	e := &t.entries[i]
	if e.valid && e.rttPos >= 0 {
		if re := t.rtt[e.mapID]; re != nil && e.rttPos < len(re.back) && re.back[e.rttPos] == int32(i) {
			re.back[e.rttPos] = -1
		}
	}
	*e = refEntry{rttPos: -1}
}

// recycleRTT removes the map's tracking refEntry and pushes it on the free
// list for the next rttTrack to reuse.
func (t *refTable) recycleRTT(id uint64) {
	if re := t.rtt[id]; re != nil {
		re.back = re.back[:0]
		re.writePtr = 0
		re.overflow = false
		re.m = nil
		t.rttFree = append(t.rttFree, re)
	}
	delete(t.rtt, id)
}

// rttTrack records a back pointer for the newly installed refEntry through
// the map's RTT write pointer, returning the slot used (or -1 after
// overflow).
func (t *refTable) rttTrack(m *hashmap.Map, tableIdx int) int {
	re := t.rtt[m.ID()]
	if re == nil {
		if n := len(t.rttFree); n > 0 {
			re = t.rttFree[n-1]
			t.rttFree[n-1] = nil
			t.rttFree = t.rttFree[:n-1]
			re.m = m
		} else {
			re = &refRTT{back: make([]int32, 0, 8), m: m}
		}
		t.rtt[m.ID()] = re
	}
	if re.overflow {
		return -1
	}
	if re.writePtr >= t.cfg.RTTPointers {
		// Circular buffer exhausted: stop tracking order precisely; Free
		// and flush fall back to scanning.
		re.overflow = true
		return -1
	}
	re.back = append(re.back, int32(tableIdx))
	pos := re.writePtr
	re.writePtr++
	return pos
}
