// Package fwstate is the conntrack layer of a stateful firewall over
// the classifier: the flow table of internal/flowcache keyed by the
// direction-normalized flow, with an idle TTL. A forward-direction
// packet whose verdict says "allow-established" installs an entry under
// the flow's canonical Key (endpoints sorted, so both directions map to
// one entry); subsequent packets of either direction are then accepted
// by state with one hash probe, before the full classification pipeline
// runs.
//
// This package holds only what is specific to conntrack: the Key and
// its hash, the default TTL, and the Table instantiation. Slot
// publication, generation stamping, TTL refresh, eviction and the
// statistics are the shared flowcache.Table's.
package fwstate

import (
	"time"

	"repro/internal/core"
	"repro/internal/flowcache"
)

// MinEntries is the smallest table the constructor will build.
const MinEntries = flowcache.MinEntries

// DefaultTTL is the idle lifetime of an established flow when the
// caller passes a non-positive TTL — the common conntrack default for
// generic (non-TCP-aware) state.
const DefaultTTL = 60 * time.Second

// Stats is a point-in-time snapshot of flow-table effectiveness.
type Stats = flowcache.Stats

// Table is the conntrack table: a flowcache.Table over flow Keys.
type Table struct {
	flowcache.Table[Key]
}

// New returns a table with at least the requested number of entry
// slots (rounded up to a power of two, minimum MinEntries). A
// non-positive ttl falls back to DefaultTTL.
func New(entries int, ttl time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	t := new(Table)
	t.Init(entries, ttl)
	return t
}

// Hash exposes the slot hash of a Key, so callers that probe and then
// install on the same flow compute it once and thread it through
// GetHashed and PutHashed.
//
//repro:noalloc
func (t *Table) Hash(k Key) uint64 { return hash(k) }

// Get probes the table for an established flow (see
// flowcache.Table.GetHashed): a hit refreshes the flow's idle deadline.
//
//repro:noalloc
func (t *Table) Get(k Key) (res core.Result, gen uint64, ok bool) {
	return t.GetHashed(hash(k), k)
}

// Put installs an established flow computed at generation gen (see
// flowcache.Table.PutHashed).
func (t *Table) Put(gen uint64, k Key, res core.Result) {
	t.PutHashed(hash(k), gen, k, res)
}
