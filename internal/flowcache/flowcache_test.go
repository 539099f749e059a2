package flowcache

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rule"
)

func hdr(i int) rule.Header {
	return rule.Header{SrcIP: uint32(i), DstIP: uint32(i >> 3), SrcPort: uint16(i), DstPort: 80, Proto: rule.ProtoTCP}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(256)
	h := hdr(1)
	if _, _, ok := c.Get(h); ok {
		t.Fatal("hit on empty cache")
	}
	res := core.Result{RuleID: 7, Priority: 3, Found: true}
	_, gen, _ := c.Get(h)
	c.Put(gen, h, res)
	got, _, ok := c.Get(h)
	if !ok || got != res {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, res)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

func TestSizingAndEntries(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, MinEntries}, {1, MinEntries}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := New(tc.ask).Entries(); got != tc.want {
			t.Errorf("New(%d).Entries() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestInvalidateMakesEntriesStale is the generation-stamping contract: a
// Get issued after Invalidate returns must not see any pre-invalidation
// entry, and a Put stamped with a pre-invalidation generation must be a
// no-op for post-invalidation readers.
func TestInvalidateMakesEntriesStale(t *testing.T) {
	c := New(256)
	h := hdr(2)
	_, gen, _ := c.Get(h)
	c.Put(gen, h, core.Result{RuleID: 1, Found: true})
	if _, _, ok := c.Get(h); !ok {
		t.Fatal("warm entry missing")
	}
	c.Invalidate()
	if _, _, ok := c.Get(h); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	// A fill computed before the invalidation (stale gen) never becomes
	// visible.
	c.Put(gen, h, core.Result{RuleID: 99, Found: true})
	if _, _, ok := c.Get(h); ok {
		t.Fatal("stale-generation fill served")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestEvictionCounting fills two headers that collide on the same slot
// (same table index) and checks the displacement is counted.
func TestEvictionCounting(t *testing.T) {
	c := New(MinEntries)
	// Find two distinct headers hashing to the same slot.
	base := hdr(1)
	slot := hash(base) & c.mask
	var other rule.Header
	for i := 2; ; i++ {
		if h := hdr(i); hash(h)&c.mask == slot {
			other = h
			break
		}
	}
	_, gen, _ := c.Get(base)
	c.Put(gen, base, core.Result{RuleID: 1, Found: true})
	c.Put(gen, other, core.Result{RuleID: 2, Found: true})
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The displacing entry is the one served now.
	if got, _, ok := c.Get(other); !ok || got.RuleID != 2 {
		t.Errorf("Get(other) = %+v, %v", got, ok)
	}
	if _, _, ok := c.Get(base); ok {
		t.Error("displaced entry still served")
	}
}

// TestConcurrentGetPutInvalidate drives readers, fillers and an
// invalidator in parallel; run under -race this checks the lock-free
// slot publication and counter sharding.
func TestConcurrentGetPutInvalidate(t *testing.T) {
	c := New(1024)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				h := hdr(i % 512)
				res, gen, ok := c.Get(h)
				if !ok {
					c.Put(gen, h, core.Result{RuleID: i % 512, Found: true})
				} else if !res.Found {
					t.Error("cached miss result published by test")
					return
				}
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		c.Invalidate()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
	if st.Invalidations != 100 {
		t.Errorf("invalidations = %d", st.Invalidations)
	}
}

// TestNoTTLNeverExpires pins the TTL-0 contract of the shared table: a
// cache entry stays served however far its clock jumps, because
// neither the probe nor the fill reads the clock.
func TestNoTTLNeverExpires(t *testing.T) {
	c := New(256)
	var now, reads int64
	c.SetClock(func() int64 { reads++; return now })
	if c.TTL() != 0 {
		t.Fatalf("cache TTL = %v, want 0", c.TTL())
	}
	h := hdr(3)
	_, gen, _ := c.Get(h)
	c.Put(gen, h, core.Result{RuleID: 5, Found: true})
	now = int64(10 * 365 * 24 * time.Hour)
	if got, _, ok := c.Get(h); !ok || got.RuleID != 5 {
		t.Fatalf("Get after a ten-year clock jump = %+v, %v; want the cached verdict", got, ok)
	}
	if st := c.Stats(); st.Expiries != 0 {
		t.Errorf("expiries = %d, want 0", st.Expiries)
	}
	if reads != 0 {
		t.Errorf("TTL-0 table read its clock %d times", reads)
	}
}

// TestPutCountsInstalls checks that cache fills count as installs, as
// conntrack installs do: every Put publishes one entry.
func TestPutCountsInstalls(t *testing.T) {
	c := New(256)
	for i := 0; i < 10; i++ {
		h := hdr(i)
		_, gen, _ := c.Get(h)
		c.Put(gen, h, core.Result{RuleID: i, Found: true})
	}
	// A refill of a present header is an install too.
	h := hdr(0)
	c.PutHashed(c.Hash(h), 0, h, core.Result{RuleID: 0, Found: true})
	if st := c.Stats(); st.Installs != 11 {
		t.Errorf("installs = %d, want 11", st.Installs)
	}
}
