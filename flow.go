package repro

import (
	"sync"
	"time"

	"repro/internal/flowcache"
	"repro/internal/fwstate"
	"repro/internal/hwsim"
	"repro/internal/packet"
	"repro/internal/rule"
)

// FlowCacheStats reports flow-cache effectiveness: slot capacity,
// installs, hit and miss counts, evictions of live entries, and the
// number of generation invalidations (one per completed rule update).
// Expiries is always 0: cache entries never expire.
type FlowCacheStats = flowcache.Stats

// FlowStateStats reports conntrack-table effectiveness: entry capacity,
// install / state-hit / miss counts, TTL expiries, evictions of live
// entries, and the number of generation invalidations.
type FlowStateStats = fwstate.Stats

// WithFlowCache puts a sharded, lock-free exact-match header cache with
// the given number of entry slots (rounded up to a power of two) in
// front of the engine. Skewed traffic — the Zipf-like flow popularity of
// real networks — turns most lookups into one hash probe; rule updates
// invalidate the whole cache by bumping its generation, so a lookup
// issued after an Insert or Delete returns never sees a pre-update
// verdict. The option composes with every backend and with WithShards
// (the cache fronts the sharded fan-out, so a cache hit skips every
// replica).
//
// Engines built with this option additionally implement
//
//	interface{ CacheStats() FlowCacheStats }
//
// for observing hit rates, and ctl STATS reports the same counters.
func WithFlowCache(entries int) Option {
	return func(o *engineOptions) { o.flowCache = entries }
}

// WithFlowState puts a sharded, lock-free, TTL-expiring flow-state table
// (a connection tracker) with the given number of entry slots (rounded up
// to a power of two) in front of the engine. A lookup whose matched rule
// carries ActionEstablish ("allow-established") installs a flow entry
// under the direction-normalized 5-tuple key, so the reverse direction of
// the same flow — the server's replies — is accepted by state before the
// classifier runs. Entries expire ttl after their last hit (ttl <= 0
// selects fwstate.DefaultTTL); rule updates invalidate established state
// by bumping the table generation, unless WithFlowStatePreserve keeps it
// across updates. The option composes with every backend, WithShards and
// WithFlowCache (state fronts the cache, so an established-flow hit skips
// both the cache probe and the classifier).
//
// Engines built with this option additionally implement
//
//	interface{ StateStats() FlowStateStats }
//
// for observing state-hit rates, and ctl STATS reports the same counters.
func WithFlowState(entries int, ttl time.Duration) Option {
	return func(o *engineOptions) {
		o.state = entries
		o.stateTTL = ttl
	}
}

// WithFlowStatePreserve keeps established flow state across rule updates
// (Insert, Delete and Replace no longer invalidate the state table). Use
// it when connection continuity across a ruleset swap matters more than
// immediately re-evaluating live flows against the new rules; without it
// every update clears state and established flows must re-traverse the
// classifier (and re-establish) once. Only meaningful together with
// WithFlowState.
func WithFlowStatePreserve() Option {
	return func(o *engineOptions) { o.statePreserve = true }
}

// newFlowCached wraps an assembled engine in the flow cache: every
// verdict is filled under the exact header, and every update
// invalidates.
func newFlowCached(inner Engine, entries int) Engine {
	c := flowcache.New(entries)
	l := newFlowLayer(inner, &c.Table,
		func(h rule.Header) (rule.Header, uint64) { return h, c.Hash(h) },
		func(hs, ks []rule.Header, hks []uint64) {
			for j, h := range hs {
				ks[j], hks[j] = h, c.Hash(h)
			}
		})
	// A 64-bit slot pointer and a 13-byte header, 30-byte verdict and
	// 8-byte generation per entry.
	l.memName, l.memWidth = "flowcache", 64+8*(13+30+8)
	if hasModel(inner) {
		return &cachedModelEngine{cachedEngine{l}}
	}
	return &cachedEngine{l}
}

// newFlowState wraps an assembled engine in the conntrack layer: only
// establishing verdicts are filled, under the direction-normalized flow
// key, and updates invalidate unless preserve is set.
func newFlowState(inner Engine, entries int, ttl time.Duration, preserve bool) Engine {
	t := fwstate.New(entries, ttl)
	l := newFlowLayer(inner, &t.Table,
		func(h rule.Header) (fwstate.Key, uint64) {
			k := fwstate.KeyOf(h)
			return k, t.Hash(k)
		},
		func(hs []rule.Header, ks []fwstate.Key, hks []uint64) {
			for j, h := range hs {
				k := fwstate.KeyOf(h)
				ks[j], hks[j] = k, t.Hash(k)
			}
		})
	l.establishOnly, l.preserve = true, preserve
	// A 64-bit slot pointer and a 46-byte key, 30-byte verdict, 8-byte
	// generation and 8-byte expiry per entry.
	l.memName, l.memWidth = "fwstate", 64+8*(46+30+8+8)
	if hasModel(inner) {
		return &statefulModelEngine{statefulEngine{l}}
	}
	return &statefulEngine{l}
}

// hasModel reports whether e models hardware throughput (decomposition,
// possibly sharded or wrapped in another flow layer).
func hasModel(e Engine) bool {
	_, ok := e.(interface{ ModelThroughput() Throughput })
	return ok
}

// cachedEngine is the flow-cache layer; CacheStats is its capability.
type cachedEngine struct{ *flowLayer[rule.Header] }

// CacheStats reports flow-cache effectiveness.
func (c *cachedEngine) CacheStats() FlowCacheStats { return c.table.Stats() }

// cachedModelEngine is a flow-cache layer over a model-capable engine.
type cachedModelEngine struct{ cachedEngine }

// ModelThroughput reports the inner engine's modeled forwarding rate
// (the cache does not change the modeled hardware pipeline).
func (c *cachedModelEngine) ModelThroughput() Throughput { return c.modelThroughput() }

// statefulEngine is the conntrack layer; StateStats is its capability.
//
// It deliberately does not forward CacheStats: a cached inner
// composition stays reachable through Unwrap, so capability probes that
// walk the wrapper chain see the cache exactly when one exists instead
// of a zero-valued impostor.
type statefulEngine struct{ *flowLayer[fwstate.Key] }

// StateStats reports flow-state-table effectiveness.
func (s *statefulEngine) StateStats() FlowStateStats { return s.table.Stats() }

// statefulModelEngine is a conntrack layer over a model-capable engine.
type statefulModelEngine struct{ statefulEngine }

// ModelThroughput reports the inner engine's modeled forwarding rate
// (the state table does not change the modeled hardware pipeline).
func (s *statefulModelEngine) ModelThroughput() Throughput { return s.modelThroughput() }

// flowLayer fronts any Engine with a flow table keyed by K: the flow
// cache (K = the exact header, every verdict filled) or the conntrack
// layer (K = the direction-normalized flow key, only establishing
// verdicts filled). Lookups probe the table first; on a miss the inner
// engine classifies the header and the verdict is filled under the
// generation observed before the inner lookup. Updates delegate to the
// inner engine and then invalidate the table (unless preserve is set),
// so an entry can never outlive the ruleset it was filled from.
type flowLayer[K comparable] struct {
	inner Engine
	table *flowcache.Table[K]
	// key maps a header to its table key and the key's slot hash; keys
	// does the same for a whole batch (ks[j] and hks[j] for hs[j]), so
	// the batch path pays one indirect call per batch, not per header.
	key  func(rule.Header) (K, uint64)
	keys func(hs []rule.Header, ks []K, hks []uint64)
	// establishOnly fills only ActionEstablish verdicts; preserve keeps
	// the table across rule updates.
	establishOnly, preserve bool
	// memName and memWidth describe the slot array as a RAM block.
	memName  string
	memWidth int
	// scratch pools the batch path's *flowScratch[K].
	scratch sync.Pool
}

// flowScratch is the pooled working set of a flow layer's batch path:
// the batch's keys and hashes, and its misses — their index in the
// batch, their destination in out and their headers, compacted into one
// contiguous slab so the inner engine sees a dense burst.
type flowScratch[K comparable] struct {
	keys []K
	hks  []uint64
	js   []int
	pos  []int
	miss []rule.Header
}

// newFlowLayer builds a flow layer over table with the given key
// functions; it fills every verdict and invalidates on every update
// until the caller says otherwise.
func newFlowLayer[K comparable](inner Engine, table *flowcache.Table[K],
	key func(rule.Header) (K, uint64), keys func([]rule.Header, []K, []uint64)) *flowLayer[K] {
	l := &flowLayer[K]{inner: inner, table: table, key: key, keys: keys}
	l.scratch.New = func() any { return new(flowScratch[K]) }
	return l
}

// flowHitCost is the modeled cost of a lookup served by a flow table: a
// single exact-match hash probe.
var flowHitCost = hwsim.Cost{Cycles: 1, Reads: 1}

// fills reports whether the layer publishes the verdict res.
func (l *flowLayer[K]) fills(res Result) bool {
	return !l.establishOnly || res.Found && res.Action == ActionEstablish
}

// updated invalidates the table after a successful rule update.
func (l *flowLayer[K]) updated(cost Cost, err error) (Cost, error) {
	if err == nil && !l.preserve {
		l.table.Invalidate()
	}
	return cost, err
}

// Insert installs the rule and invalidates the table once the update —
// including the RCU snapshot swap — has completed.
func (l *flowLayer[K]) Insert(r Rule) (Cost, error) { return l.updated(l.inner.Insert(r)) }

// Delete removes the rule and invalidates the table.
func (l *flowLayer[K]) Delete(id int) (Cost, error) { return l.updated(l.inner.Delete(id)) }

// Replace atomically swaps the inner engine's whole ruleset and then
// invalidates the table with a single generation bump — one
// invalidation for the entire swap, not one per rule.
func (l *flowLayer[K]) Replace(rules []Rule) (Cost, error) {
	return l.updated(l.inner.Replace(rules))
}

// Backend reports the wrapped engine's algorithm.
func (l *flowLayer[K]) Backend() Backend { return l.inner.Backend() }

// Unwrap exposes the wrapped engine so capability probes (modeled
// throughput, shard count, cache stats) can reach through the layer.
func (l *flowLayer[K]) Unwrap() Engine { return l.inner }

// Snapshot exports the inner engine's installed ruleset.
func (l *flowLayer[K]) Snapshot() []Rule { return l.inner.Snapshot() }

// Len returns the number of installed rules.
func (l *flowLayer[K]) Len() int { return l.inner.Len() }

// IncrementalUpdate reports the wrapped engine's Table I property.
func (l *flowLayer[K]) IncrementalUpdate() bool { return l.inner.IncrementalUpdate() }

// Memory reports the inner engine's RAM blocks plus the slot array.
func (l *flowLayer[K]) Memory() MemoryMap {
	mm := l.inner.Memory()
	mm.Add(l.memName, l.memWidth, l.table.Entries())
	return mm
}

// Stats forwards the inner engine's pipeline statistics (population only
// for backends without the hardware model).
func (l *flowLayer[K]) Stats() Stats {
	if se, ok := l.inner.(interface{ Stats() Stats }); ok {
		return se.Stats()
	}
	return Stats{Rules: l.inner.Len()}
}

// Shards reports the inner engine's replica count (1 when unsharded),
// so the serving layer sees through the layer without unwrapping.
func (l *flowLayer[K]) Shards() int {
	if sh, ok := l.inner.(interface{ Shards() int }); ok {
		return sh.Shards()
	}
	return 1
}

// modelThroughput reports the inner engine's modeled forwarding rate;
// only the model-carrying layer types expose it.
func (l *flowLayer[K]) modelThroughput() Throughput {
	return l.inner.(interface{ ModelThroughput() Throughput }).ModelThroughput()
}

// Lookup serves the header from the table when possible, otherwise
// runs the full lookup below and fills the table with the verdict. Hits
// allocate nothing; a fill allocates one table entry.
//
//repro:noalloc
func (l *flowLayer[K]) Lookup(h Header) (Result, Cost) {
	k, hk := l.key(h)
	res, gen, ok := l.table.GetHashed(hk, k)
	if ok {
		return res, flowHitCost
	}
	res, cost := l.inner.Lookup(h)
	if l.fills(res) {
		l.table.PutHashed(hk, gen, k, res)
	}
	return res, cost
}

// LookupBytes decodes the frame in place and looks the header up like
// Lookup.
//
//repro:noalloc
func (l *flowLayer[K]) LookupBytes(frame []byte) (Result, error) {
	var h rule.Header
	if err := packet.DecodeEthernet(frame, &h); err != nil {
		return Result{}, err
	}
	res, _ := l.Lookup(h)
	return res, nil
}

// LookupBatch serves table hits in place and classifies only the missed
// headers through the inner engine's batched path, preserving result
// order.
func (l *flowLayer[K]) LookupBatch(hs []Header) []Result {
	out := make([]Result, len(hs))
	l.LookupBatchInto(hs, out)
	return out
}

// LookupBatchInto implements Engine through the layer's batch path (see
// batch).
//
//repro:noalloc
func (l *flowLayer[K]) LookupBatchInto(hs []Header, out []Result) {
	l.batch(hs, nil, out)
}

// LookupBytesBatch implements Engine: the pooled burst decoder feeds the
// decoded headers, with their frame indices, to the layer's batch path.
//
//repro:noalloc
func (l *flowLayer[K]) LookupBytesBatch(frames [][]byte, out []Result) int {
	return lookupFrames(frames, out, l.batch)
}

// batch is the layer's one miss-compaction loop. The verdict of hs[j]
// goes to out[j], or to out[idx[j]] when idx is given. All headers are
// probed first, against the table as it stood at batch start (entries
// filled for earlier headers are not visible to later ones, as a
// hardware burst is classified against one snapshot); the misses are
// compacted into pooled scratch so the inner engine sees one dense
// burst, classified by one batched inner lookup, scattered back, and
// filled. Hits and probes allocate nothing; each fill allocates one
// table entry.
//
//repro:noalloc
func (l *flowLayer[K]) batch(hs []Header, idx []int, out []Result) {
	sc := l.scratch.Get().(*flowScratch[K])
	var zero K
	keys, hks := sc.keys[:0], sc.hks[:0]
	for range hs {
		keys, hks = append(keys, zero), append(hks, 0)
	}
	l.keys(hs, keys, hks)
	js, pos, miss := sc.js[:0], sc.pos[:0], sc.miss[:0]
	var fillGen uint64
	for j, h := range hs {
		res, gen, ok := l.table.GetHashed(hks[j], keys[j])
		p := j
		if idx != nil {
			p = idx[j]
		}
		if ok {
			out[p] = res
			continue
		}
		if len(miss) == 0 {
			// The first generation observed lower-bounds every later
			// one and precedes the engine read below, so stamping all
			// fills with it is safe.
			fillGen = gen
		}
		js, pos, miss = append(js, j), append(pos, p), append(miss, h)
	}
	if len(miss) > 0 {
		scatterBatch(l.inner, miss, pos, out)
		for m, j := range js {
			if res := out[pos[m]]; l.fills(res) {
				l.table.PutHashed(hks[j], fillGen, keys[j], res)
			}
		}
	}
	sc.keys, sc.hks, sc.js, sc.pos, sc.miss = keys, hks, js, pos, miss
	l.scratch.Put(sc)
}
