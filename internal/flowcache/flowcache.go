// Package flowcache implements the lock-free exact-match flow table that
// sits in front of the classifier, once, for every key type. Two layers
// of the engine use it: the flow cache (Cache, keyed by the exact
// 5-tuple, entries never expire) remembers every verdict so skewed
// traffic becomes one hash probe — the software analogue of the OVS
// microflow cache or the DPDK EMC — and the conntrack table
// (internal/fwstate, keyed by the direction-normalized flow) admits
// established flows with an idle TTL.
//
// Concurrency model: the table is an array of atomic.Pointer slots over
// immutable entries. Readers load one pointer and compare the stored
// key and generation — no locks, no retries. Fills publish a fresh
// entry with one atomic store (one allocation per fill); whichever
// store lands last wins, which is acceptable for a cache. Consistency
// with rule updates is by generation stamping: every entry carries the
// table generation observed *before* the underlying engine lookup ran,
// and Invalidate (called by the engine wrapper after each Insert,
// Delete or Replace completes) bumps the generation, so every
// pre-update entry mismatches and reads fall through to the engine. A
// lookup racing an update may still serve the pre-update verdict —
// exactly the guarantee the RCU snapshot store already gives — but no
// probe that begins after an update returns can see a pre-update entry.
//
// A table with a TTL gives every entry an idle deadline, the one
// mutable field of a published entry: an atomic the probe path pushes
// forward on every hit, a wait-free refresh that never re-publishes the
// entry. A table with TTL 0 never expires entries and never reads its
// clock.
//
// The table hashes nothing itself: callers pass the key's hash to
// GetHashed and PutHashed, so each key type keeps its own direct,
// inlinable hash (Cache.Hash here, fwstate.Table.Hash for flow keys).
// The slot array is split into shards only for statistics: per-shard
// padded counters keep the hot path off a single contended cache line,
// while the slot indexing itself spans the whole table.
package flowcache

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rule"
)

// statShards is the number of counter shards; a power of two so the
// shard pick is a mask of the key hash.
const statShards = 16

// MinEntries is the smallest table the constructors will build.
const MinEntries = 64

// Stats is a point-in-time snapshot of flow-table effectiveness.
type Stats struct {
	// Entries is the slot capacity of the table.
	Entries int
	// Installs counts published entries (Put calls).
	Installs uint64
	// Hits and Misses count Get outcomes; an expired entry counts as
	// both an expiry and a miss, so Hits+Misses covers every probe.
	Hits, Misses uint64
	// Expiries counts probes that found a matching entry past its
	// deadline (always 0 on a table without a TTL).
	Expiries uint64
	// Evictions counts fills that displaced a live (same-generation,
	// unexpired, different-key) entry.
	Evictions uint64
	// Invalidations counts generation bumps (one per completed rule
	// update or atomic replace on the wrapped engine).
	Invalidations uint64
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// entry is one published verdict. key, res and gen are immutable; gen
// is the table generation loaded before the verdict was computed, and a
// mismatch with the current generation marks the entry stale. expire is
// the idle deadline in clock nanoseconds, pushed forward atomically on
// every served hit; it is unused without a TTL.
type entry[K comparable] struct {
	key    K
	res    core.Result
	gen    uint64
	expire atomic.Int64
}

// statShard keeps one shard of the counters, padded to a cache line so
// shards do not false-share.
type statShard struct {
	installs  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	expiries  atomic.Uint64
	evictions atomic.Uint64
	_         [3]uint64
}

// Table is the lock-free flow table over keys of type K. The zero value
// is not usable; build one with Init or a keyed constructor (New here,
// fwstate.New).
type Table[K comparable] struct {
	gen   atomic.Uint64
	inval atomic.Uint64
	slots []atomic.Pointer[entry[K]]
	mask  uint64
	ttl   int64
	now   func() int64
	stats [statShards]statShard
}

// Init sizes an unshared table to at least the requested number of
// entry slots (rounded up to a power of two, minimum MinEntries) with
// idle lifetime ttl; ttl 0 means entries never expire.
func (t *Table[K]) Init(entries int, ttl time.Duration) {
	n := MinEntries
	for n < entries {
		n <<= 1
	}
	t.slots = make([]atomic.Pointer[entry[K]], n)
	t.mask = uint64(n - 1)
	t.ttl = int64(ttl)
	t.now = func() int64 { return time.Now().UnixNano() }
}

// Entries returns the slot capacity.
func (t *Table[K]) Entries() int { return len(t.slots) }

// TTL returns the configured idle lifetime (0: entries never expire).
func (t *Table[K]) TTL() time.Duration { return time.Duration(t.ttl) }

// SetClock replaces the table's nanosecond clock — deterministic TTL
// tests only. Must be called before the table is shared between
// goroutines.
func (t *Table[K]) SetClock(now func() int64) { t.now = now }

// GetHashed probes the table with the caller-computed hash hk of k. On
// a hit it returns the stored verdict and, with a TTL, pushes the
// entry's idle deadline forward by one TTL. It also returns the
// generation observed at probe time: a caller that misses must thread
// that generation through to PutHashed so the fill is stamped with a
// generation no newer than the engine state it read (see the package
// comment's staleness argument).
//
//repro:noalloc
func (t *Table[K]) GetHashed(hk uint64, k K) (res core.Result, gen uint64, ok bool) {
	gen = t.gen.Load()
	st := &t.stats[hk&(statShards-1)]
	if e := t.slots[hk&t.mask].Load(); e != nil && e.gen == gen && e.key == k && (t.ttl == 0 || t.refresh(e, st)) {
		st.hits.Add(1)
		return e.res, gen, true
	}
	st.misses.Add(1)
	return core.Result{}, gen, false
}

// refresh reports whether the matching entry e is still within its
// idle deadline and, if so, pushes the deadline forward by one TTL —
// wait-free, since the deadline is the entry's one mutable field and a
// hit never re-publishes the entry. An expired entry counts an expiry.
//
//repro:noalloc
func (t *Table[K]) refresh(e *entry[K], st *statShard) bool {
	now := t.now()
	if e.expire.Load() < now {
		st.expiries.Add(1)
		return false
	}
	e.expire.Store(now + t.ttl)
	return true
}

// PutHashed publishes a verdict for k (whose hash is hk) computed
// against the engine state current at generation gen. A fill stamped
// with a stale generation is published anyway but can never be served,
// so a racing rule update silently turns the fill into a no-op. Every
// fill allocates one entry.
func (t *Table[K]) PutHashed(hk uint64, gen uint64, k K, res core.Result) {
	slot := &t.slots[hk&t.mask]
	st := &t.stats[hk&(statShards-1)]
	if old := slot.Load(); old != nil && old.key != k && old.gen == t.gen.Load() &&
		(t.ttl == 0 || old.expire.Load() >= t.now()) {
		st.evictions.Add(1)
	}
	e := &entry[K]{key: k, res: res, gen: gen}
	if t.ttl != 0 {
		e.expire.Store(t.now() + t.ttl)
	}
	slot.Store(e)
	st.installs.Add(1)
}

// Invalidate marks every entry stale with one generation bump. The
// engine wrapper calls it after a rule update or atomic Replace has
// fully completed, so the generation a reader observes is always no
// newer than the engine state it will read.
func (t *Table[K]) Invalidate() {
	t.gen.Add(1)
	t.inval.Add(1)
}

// Stats aggregates the per-shard counters.
func (t *Table[K]) Stats() Stats {
	s := Stats{Entries: len(t.slots), Invalidations: t.inval.Load()}
	for i := range t.stats {
		st := &t.stats[i]
		s.Installs += st.installs.Load()
		s.Hits += st.hits.Load()
		s.Misses += st.misses.Load()
		s.Expiries += st.expiries.Load()
		s.Evictions += st.evictions.Load()
	}
	return s
}

// Cache is the flow cache: a Table keyed by the exact 5-tuple whose
// entries never expire.
type Cache struct {
	Table[rule.Header]
}

// New returns a cache with at least the requested number of entry slots
// (rounded up to a power of two, minimum MinEntries).
func New(entries int) *Cache {
	c := new(Cache)
	c.Init(entries, 0)
	return c
}

// hash mixes the 5-tuple into a slot index (splitmix64 finalizer over
// the packed fields).
//
//repro:noalloc
func hash(h rule.Header) uint64 {
	x := uint64(h.SrcIP)<<32 | uint64(h.DstIP)
	x ^= (uint64(h.SrcPort)<<24 | uint64(h.DstPort)<<8 | uint64(h.Proto)) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash exposes the slot hash of a header, so callers that probe and
// then fill on the same header compute it once and thread it through
// GetHashed and PutHashed.
//
//repro:noalloc
func (c *Cache) Hash(h rule.Header) uint64 { return hash(h) }

// Get probes the cache for h (see Table.GetHashed).
//
//repro:noalloc
func (c *Cache) Get(h rule.Header) (res core.Result, gen uint64, ok bool) {
	return c.GetHashed(hash(h), h)
}

// Put publishes the verdict for h computed at generation gen (see
// Table.PutHashed).
func (c *Cache) Put(gen uint64, h rule.Header, res core.Result) {
	c.PutHashed(hash(h), gen, h, res)
}
