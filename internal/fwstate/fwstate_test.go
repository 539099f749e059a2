package fwstate

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rule"
)

// The tests in this file discharge the TEST_PLAN.md contracts for Key
// and Table; each test name matches its plan entry.

func fwd(i int) rule.Header {
	return rule.Header{SrcIP: 0x0a000000 | uint32(i), DstIP: 0x08080808,
		SrcPort: uint16(1024 + i), DstPort: 443, Proto: rule.ProtoTCP}
}

func reverse(h rule.Header) rule.Header {
	return rule.Header{SrcIP: h.DstIP, DstIP: h.SrcIP,
		SrcPort: h.DstPort, DstPort: h.SrcPort, Proto: h.Proto}
}

func reverse6(h rule.Header6) rule.Header6 {
	return rule.Header6{SrcIP: h.DstIP, DstIP: h.SrcIP,
		SrcPort: h.DstPort, DstPort: h.SrcPort, Proto: h.Proto}
}

// manualClock is a settable nanosecond clock for deterministic TTL
// tests.
type manualClock struct{ ns atomic.Int64 }

func (c *manualClock) now() int64          { return c.ns.Load() }
func (c *manualClock) set(d time.Duration) { c.ns.Store(int64(d)) }

// clockedTable builds a table on a manual clock starting at t=0.
func clockedTable(entries int, ttl time.Duration) (*Table, *manualClock) {
	t := New(entries, ttl)
	c := &manualClock{}
	t.SetClock(c.now)
	return t, c
}

func TestKeyForwardReverseCollide(t *testing.T) {
	for i := 0; i < 64; i++ {
		h := fwd(i)
		if KeyOf(h) != KeyOf(reverse(h)) {
			t.Fatalf("KeyOf(%+v) != KeyOf(reverse)", h)
		}
	}
	// Self-flow: forward is its own reverse; normalization must be
	// stable.
	self := rule.Header{SrcIP: 1, DstIP: 1, SrcPort: 7, DstPort: 7, Proto: rule.ProtoUDP}
	if KeyOf(self) != KeyOf(reverse(self)) {
		t.Fatal("self-flow key unstable")
	}
}

func TestKeyDistinctFlowsDiffer(t *testing.T) {
	base := fwd(1)
	variants := []rule.Header{
		{SrcIP: base.SrcIP + 1, DstIP: base.DstIP, SrcPort: base.SrcPort, DstPort: base.DstPort, Proto: base.Proto},
		{SrcIP: base.SrcIP, DstIP: base.DstIP + 1, SrcPort: base.SrcPort, DstPort: base.DstPort, Proto: base.Proto},
		{SrcIP: base.SrcIP, DstIP: base.DstIP, SrcPort: base.SrcPort + 1, DstPort: base.DstPort, Proto: base.Proto},
		{SrcIP: base.SrcIP, DstIP: base.DstIP, SrcPort: base.SrcPort, DstPort: base.DstPort + 1, Proto: base.Proto},
		{SrcIP: base.SrcIP, DstIP: base.DstIP, SrcPort: base.SrcPort, DstPort: base.DstPort, Proto: rule.ProtoUDP},
		// Ports swapped in place: NOT the reverse (addresses kept), so a
		// different flow.
		{SrcIP: base.SrcIP, DstIP: base.DstIP, SrcPort: base.DstPort, DstPort: base.SrcPort, Proto: base.Proto},
	}
	for i, v := range variants {
		if KeyOf(base) == KeyOf(v) {
			t.Errorf("variant %d: KeyOf(%+v) collided with base", i, v)
		}
	}
}

func TestKey6ForwardReverseCollide(t *testing.T) {
	h6 := rule.Header6{
		SrcIP:   rule.Addr6{Hi: 0x20010db800000000, Lo: 1},
		DstIP:   rule.Addr6{Hi: 0x20010db800000000, Lo: 2},
		SrcPort: 40000, DstPort: 53, Proto: rule.ProtoUDP,
	}
	if KeyOf6(h6) != KeyOf6(reverse6(h6)) {
		t.Fatal("v6 forward/reverse keys differ")
	}
	// A v4 flow whose addresses zero-extend to a v6 flow's halves must
	// not share a key with it (family tag).
	h4 := rule.Header{SrcIP: 1, DstIP: 2, SrcPort: 40000, DstPort: 53, Proto: rule.ProtoUDP}
	z6 := rule.Header6{
		SrcIP:   rule.Addr6{Lo: 1},
		DstIP:   rule.Addr6{Lo: 2},
		SrcPort: 40000, DstPort: 53, Proto: rule.ProtoUDP,
	}
	if KeyOf(h4) == KeyOf6(z6) {
		t.Fatal("v4 and zero-extended v6 flows share a key")
	}
}

func TestNewClamps(t *testing.T) {
	tb := New(0, 0)
	if tb.Entries() != MinEntries {
		t.Errorf("Entries() = %d, want %d", tb.Entries(), MinEntries)
	}
	if tb.TTL() != DefaultTTL {
		t.Errorf("TTL() = %v, want %v", tb.TTL(), DefaultTTL)
	}
	if got := New(1000, time.Second).Entries(); got != 1024 {
		t.Errorf("New(1000).Entries() = %d, want 1024", got)
	}
}

func TestInstallOnForward(t *testing.T) {
	tb, _ := clockedTable(256, time.Second)
	k := KeyOf(fwd(1))
	if _, _, ok := tb.Get(k); ok {
		t.Fatal("hit on empty table")
	}
	res := core.Result{RuleID: 7, Priority: 3, Action: rule.ActionPermit, Found: true}
	_, gen, _ := tb.Get(k)
	tb.Put(gen, k, res)
	got, _, ok := tb.Get(k)
	if !ok || got != res {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, res)
	}
	st := tb.Stats()
	if st.Installs != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 install, 1 hit, 2 misses", st)
	}
}

func TestReverseAccept(t *testing.T) {
	tb, _ := clockedTable(256, time.Second)
	h := fwd(2)
	res := core.Result{RuleID: 9, Priority: 1, Found: true}
	_, gen, _ := tb.Get(KeyOf(h))
	tb.Put(gen, KeyOf(h), res)
	// The reverse direction probes with its own KeyOf — which must land
	// on the entry the forward direction installed.
	got, _, ok := tb.Get(KeyOf(reverse(h)))
	if !ok || got != res {
		t.Fatalf("reverse Get = %+v, %v; want the forward verdict", got, ok)
	}
}

func TestTTLExpiry(t *testing.T) {
	tb, clk := clockedTable(256, time.Second)
	k := KeyOf(fwd(3))
	_, gen, _ := tb.Get(k)
	tb.Put(gen, k, core.Result{RuleID: 1, Found: true})
	clk.set(500 * time.Millisecond)
	if _, _, ok := tb.Get(k); !ok {
		t.Fatal("entry expired before its TTL")
	}
	// The hit above refreshed the deadline to 1.5s; step past it.
	clk.set(1600 * time.Millisecond)
	if _, _, ok := tb.Get(k); ok {
		t.Fatal("expired entry served")
	}
	st := tb.Stats()
	if st.Expiries != 1 {
		t.Errorf("expiries = %d, want 1", st.Expiries)
	}
	// Conservation: every probe is a hit or a miss (expiry doubles as a
	// miss).
	if st.Hits+st.Misses != 3 {
		t.Errorf("hits+misses = %d, want 3 (probes issued)", st.Hits+st.Misses)
	}
}

func TestTTLRefreshOnHit(t *testing.T) {
	tb, clk := clockedTable(256, time.Second)
	k := KeyOf(fwd(4))
	_, gen, _ := tb.Get(k)
	tb.Put(gen, k, core.Result{RuleID: 2, Found: true})
	// Each probe lands 0.9s after the previous one: past the install
	// TTL but inside the refreshed deadline every time.
	for _, at := range []time.Duration{900, 1800, 2700} {
		clk.set(at * time.Millisecond)
		if _, _, ok := tb.Get(k); !ok {
			t.Fatalf("entry not served at t=%vms despite refreshes", at)
		}
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	tb, _ := clockedTable(MinEntries, time.Second)
	base := KeyOf(fwd(1))
	mask := uint64(tb.Entries() - 1)
	slot := hash(base) & mask
	var other Key
	for i := 2; ; i++ {
		if k := KeyOf(fwd(i)); hash(k)&mask == slot {
			other = k
			break
		}
	}
	_, gen, _ := tb.Get(base)
	tb.Put(gen, base, core.Result{RuleID: 1, Found: true})
	tb.Put(gen, other, core.Result{RuleID: 2, Found: true})
	if st := tb.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if got, _, ok := tb.Get(other); !ok || got.RuleID != 2 {
		t.Errorf("displacing flow not served: %+v, %v", got, ok)
	}
	if _, _, ok := tb.Get(base); ok {
		t.Error("displaced flow still served")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	tb, _ := clockedTable(256, time.Second)
	k := KeyOf(fwd(5))
	_, gen, _ := tb.Get(k)
	tb.Put(gen, k, core.Result{RuleID: 1, Found: true})
	if _, _, ok := tb.Get(k); !ok {
		t.Fatal("warm entry missing")
	}
	tb.Invalidate()
	if _, _, ok := tb.Get(k); ok {
		t.Fatal("stale flow served after Invalidate")
	}
	if st := tb.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestStaleFillNeverServed(t *testing.T) {
	tb, _ := clockedTable(256, time.Second)
	k := KeyOf(fwd(6))
	_, gen, _ := tb.Get(k) // generation observed pre-invalidate
	tb.Invalidate()
	tb.Put(gen, k, core.Result{RuleID: 42, Found: true})
	if _, _, ok := tb.Get(k); ok {
		t.Fatal("stale-generation fill served")
	}
}

// TestConcurrentChurn drives probers, installers and an invalidator in
// parallel (the -race half of the lock-free contract), then checks the
// table still answers a sequential pass consistently.
func TestConcurrentChurn(t *testing.T) {
	tb := New(1024, time.Minute)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				k := KeyOf(fwd(i % 512))
				res, gen, ok := tb.Get(k)
				if !ok {
					tb.Put(gen, k, core.Result{RuleID: i % 512, Found: true})
				} else if !res.Found {
					t.Error("not-found verdict served from state")
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		tb.Invalidate()
	}
	wg.Wait()
	st := tb.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
	if st.Invalidations != 100 {
		t.Errorf("invalidations = %d, want 100", st.Invalidations)
	}
	// Sequential differential pass against a map oracle on the settled
	// table: a served verdict must be the installed one (the table is
	// direct-mapped, so a miss — the flow was evicted by a colliding
	// install — is legal; a wrong verdict never is).
	oracle := make(map[Key]core.Result)
	for i := 0; i < 512; i++ {
		k := KeyOf(fwd(i))
		res, gen, ok := tb.Get(k)
		if !ok {
			res = core.Result{RuleID: i, Found: true}
			tb.Put(gen, k, res)
		}
		oracle[k] = res
	}
	served := 0
	for i := 0; i < 512; i++ {
		k := KeyOf(fwd(i))
		if res, _, ok := tb.Get(k); ok {
			served++
			if res != oracle[k] {
				t.Fatalf("flow %d: got %+v; oracle %+v", i, res, oracle[k])
			}
		}
	}
	if served == 0 {
		t.Fatal("no flow survived to the differential pass")
	}
}

// TestTableProbeZeroAllocs is the runtime counterpart of the
// //repro:noalloc annotations on the probe path: KeyOf, KeyOf6, Hash,
// Get and GetHashed must stay off the heap on hits, misses and
// expiries.
func TestTableProbeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-runtime allocations")
	}
	tb, _ := clockedTable(256, time.Second)
	h := fwd(7)
	h6 := rule.Header6{SrcIP: rule.Addr6{Hi: 1, Lo: 2}, DstIP: rule.Addr6{Hi: 3, Lo: 4},
		SrcPort: 1, DstPort: 2, Proto: rule.ProtoTCP}
	k := KeyOf(h)
	miss := KeyOf(fwd(8))
	_, gen, _ := tb.Get(k)
	tb.PutHashed(tb.Hash(k), gen, k, core.Result{RuleID: 7, Found: true})
	hits := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := tb.Get(KeyOf(h)); ok {
			hits++
		}
		tb.GetHashed(tb.Hash(miss), miss)
		_ = KeyOf6(h6)
	})
	if allocs != 0 {
		t.Errorf("probe path allocated %v times per run, want 0", allocs)
	}
	if hits == 0 {
		t.Fatal("hit path never exercised")
	}
}
