package repro_test

import (
	"sync"
	"testing"

	repro "repro"
	"repro/internal/packet"
	"repro/internal/ruleset"
)

// sanitizeTrace maps trace headers onto the frame-representable subset:
// only TCP and UDP carry ports on the wire, so other protocols get
// their ports zeroed before a build/decode round trip.
func sanitizeTrace(trace []repro.Header) []repro.Header {
	out := append([]repro.Header(nil), trace...)
	for i := range out {
		if out[i].Proto != repro.ProtoTCP && out[i].Proto != repro.ProtoUDP {
			out[i].SrcPort, out[i].DstPort = 0, 0
		}
	}
	return out
}

// framesFor synthesizes one Ethernet frame per header.
func framesFor(trace []repro.Header) [][]byte {
	frames := make([][]byte, len(trace))
	for i, h := range trace {
		frames[i] = packet.BuildEthernet(packet.BuildIPv4(h))
	}
	return frames
}

// rawVariants enumerates the engine compositions the raw-ingestion path
// must agree across for a given backend.
func rawVariants(t *testing.T, b repro.Backend, rs *repro.RuleSet) map[string]repro.Engine {
	t.Helper()
	variants := make(map[string]repro.Engine)
	for name, opts := range map[string][]repro.Option{
		"plain":   {repro.WithBackend(b), repro.WithRules(rs)},
		"shards4": {repro.WithBackend(b), repro.WithRules(rs), repro.WithShards(4)},
		"cache":   {repro.WithBackend(b), repro.WithRules(rs), repro.WithFlowCache(1024)},
	} {
		eng, err := repro.New(opts...)
		if err != nil {
			t.Fatalf("%v/%s: New: %v", b, name, err)
		}
		variants[name] = eng
	}
	return variants
}

// TestLookupBytesConformance is the raw-ingestion differential gate:
// for every backend and composition, LookupBytesBatch over built frames
// must equal LookupBatch over the parsed headers, and single-frame
// LookupBytes must equal both.
func TestLookupBytesConformance(t *testing.T) {
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.ACL, Size: 120, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 200, 104))
	frames := framesFor(trace)
	parsed := make([]repro.Header, len(frames))
	for i, f := range frames {
		h, err := repro.ParsePacket(f)
		if err != nil {
			t.Fatalf("frame %d does not parse: %v", i, err)
		}
		if h != trace[i] {
			t.Fatalf("frame %d round-trips to %+v, want %+v", i, h, trace[i])
		}
		parsed[i] = h
	}
	out := make([]repro.Result, len(frames))
	for _, b := range repro.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			for name, eng := range rawVariants(t, b, rs) {
				want := eng.LookupBatch(parsed)
				// Run the byte path twice so the second pass exercises the
				// warmed pools (and, for "cache", the hashed hit path).
				for pass := 0; pass < 2; pass++ {
					n := eng.LookupBytesBatch(frames, out)
					if n != len(frames) {
						t.Fatalf("%s pass %d: decoded %d of %d frames", name, pass, n, len(frames))
					}
					for i := range out {
						if out[i] != want[i] {
							t.Fatalf("%s pass %d frame %d: LookupBytesBatch %+v, LookupBatch %+v",
								name, pass, i, out[i], want[i])
						}
					}
				}
				for i, f := range frames {
					res, err := eng.LookupBytes(f)
					if err != nil {
						t.Fatalf("%s frame %d: %v", name, i, err)
					}
					if res != want[i] {
						t.Fatalf("%s frame %d: LookupBytes %+v, LookupBatch %+v", name, i, res, want[i])
					}
				}
			}
		})
	}
}

// TestLookupBytesBatchBadFrames pins the decode-failure contract: bad
// frames yield the zero Result at their slab position, good frames
// still classify, and the return value counts only the decoded ones.
func TestLookupBytesBatchBadFrames(t *testing.T) {
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.ACL, Size: 60, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 8, 105))
	good := framesFor(trace)
	want := make([]repro.Result, len(trace))
	for name, eng := range rawVariants(t, repro.BackendDecomposition, rs) {
		for i, h := range trace {
			want[i], _ = eng.Lookup(h)
		}
		frames := [][]byte{
			good[0],
			nil,          // empty
			good[1][:10], // truncated Ethernet
			good[2],
			{0xde, 0xad}, // garbage
			good[3],
		}
		out := make([]repro.Result, len(frames))
		if n := eng.LookupBytesBatch(frames, out); n != 3 {
			t.Fatalf("%s: decoded %d frames, want 3", name, n)
		}
		for i, wi := range []int{0, -1, -1, 2, -1, 3} {
			if wi < 0 {
				if out[i] != (repro.Result{}) {
					t.Fatalf("%s: bad frame %d produced %+v, want zero Result", name, i, out[i])
				}
				if _, err := eng.LookupBytes(frames[i]); err == nil {
					t.Fatalf("%s: LookupBytes on bad frame %d should fail", name, i)
				}
			} else if out[i] != want[wi] {
				t.Fatalf("%s: frame %d: %+v, want %+v", name, i, out[i], want[wi])
			}
		}
	}
}

// TestLookupBytesConformanceUnderChurn keeps the byte path and the
// header path in agreement while a writer churns rules, meaningful
// under -race. The churned rules match protocol 200, which no trace
// header carries, so the verdicts for the trace are invariant across
// every snapshot the readers might observe.
// sameVerdict compares results by match identity, ignoring the probe
// counters (which legitimately vary with the live ruleset under churn).
func sameVerdict(a, b repro.Result) bool {
	return a.Found == b.Found && a.RuleID == b.RuleID &&
		a.Priority == b.Priority && a.Action == b.Action
}

func TestLookupBytesConformanceUnderChurn(t *testing.T) {
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.IPC, Size: 80, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 64, 106))
	frames := framesFor(trace)
	for name, eng := range rawVariants(t, repro.BackendDecomposition, rs) {
		want := eng.LookupBatch(trace)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn := repro.Rule{
				ID: 100000, Priority: 100000,
				SrcPort: repro.FullPortRange(), DstPort: repro.FullPortRange(),
				Proto: repro.ExactProto(200), Action: repro.ActionDeny,
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%2 == 0 {
					if _, err := eng.Insert(churn); err != nil {
						t.Errorf("churn insert: %v", err)
						return
					}
				} else if _, err := eng.Delete(churn.ID); err != nil {
					t.Errorf("churn delete: %v", err)
					return
				}
			}
		}()
		out := make([]repro.Result, len(frames))
		for round := 0; round < 50; round++ {
			eng.LookupBytesBatch(frames, out)
			for i := range out {
				if !sameVerdict(out[i], want[i]) {
					t.Errorf("%s round %d frame %d: %+v, want %+v", name, round, i, out[i], want[i])
				}
			}
			res, err := eng.LookupBytes(frames[round%len(frames)])
			if err != nil || !sameVerdict(res, want[round%len(frames)]) {
				t.Errorf("%s round %d: LookupBytes (%+v, %v)", name, round, res, err)
			}
		}
		close(done)
		wg.Wait()
	}
}

// TestLookupBytesZeroAllocs is the runtime half of the //repro:noalloc
// annotations on the raw-ingestion path: single-frame and burst
// classification on the decomposition backend, and the hashed
// flow-cache hit path, must stay off the heap once the pools are warm.
func TestLookupBytesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI step")
	}
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.ACL, Size: 300, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 64, 107))
	frames := framesFor(trace)
	out := make([]repro.Result, len(frames))

	eng, err := repro.New(repro.WithRules(rs))
	if err != nil {
		t.Fatal(err)
	}
	eng.LookupBytesBatch(frames, out) // warm the pooled scratch
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := eng.LookupBytes(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		eng.LookupBytesBatch(frames, out)
		i++
	})
	if allocs != 0 {
		t.Errorf("decomposition LookupBytes/LookupBytesBatch allocates %.1f objects/op steady-state, want 0", allocs)
	}

	cached, err := repro.New(repro.WithRules(rs), repro.WithFlowCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := cached.LookupBytes(f); err != nil { // fill the cache
			t.Fatal(err)
		}
	}
	i = 0
	allocs = testing.AllocsPerRun(300, func() {
		cached.LookupBytes(frames[i%len(frames)])
		i++
	})
	if allocs != 0 {
		t.Errorf("cached LookupBytes hit path allocates %.1f objects/op, want 0", allocs)
	}

	// The linear baseline's LookupBatchInto is allocation-free, so its
	// raw batch path must be too.
	lin, err := repro.New(repro.WithBackend(repro.BackendLinear), repro.WithRules(rs))
	if err != nil {
		t.Fatal(err)
	}
	lin.LookupBytesBatch(frames, out)
	allocs = testing.AllocsPerRun(300, func() {
		lin.LookupBytesBatch(frames, out)
	})
	if allocs != 0 {
		t.Errorf("linear LookupBytesBatch allocates %.1f objects/slab steady-state, want 0", allocs)
	}

	// Hit-dominated raw batches through the flow layers: once the cache
	// and the (all-establishing) state table are warm, every frame is a
	// table hit. The state table is sized so the trace's flows occupy
	// distinct slots (see TestEngineLookupBatchIntoZeroAllocs).
	est := establishingSet(t, rs)
	for _, c := range []struct {
		name string
		opts []repro.Option
	}{
		{"cache", []repro.Option{repro.WithRules(rs), repro.WithFlowCache(4096)}},
		{"cache+state", []repro.Option{repro.WithRules(est), repro.WithFlowCache(4096), repro.WithFlowState(8192, 0)}},
	} {
		eng, err := repro.New(c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.LookupBytesBatch(frames, out)
		eng.LookupBytesBatch(frames, out)
		allocs := testing.AllocsPerRun(300, func() {
			eng.LookupBytesBatch(frames, out)
		})
		if allocs != 0 {
			t.Errorf("%s LookupBytesBatch hit path allocates %.1f objects/slab, want 0", c.name, allocs)
		}
	}
}

// frames6For synthesizes one IPv6 Ethernet frame per embedded header.
func frames6For(trace []repro.Header) ([]repro.Header6, [][]byte) {
	hdrs := make([]repro.Header6, len(trace))
	frames := make([][]byte, len(trace))
	for i, h := range trace {
		hdrs[i] = ruleset.Embed6Header(h)
		frames[i] = packet.BuildEthernet6(hdrs[i])
	}
	return hdrs, frames
}

// TestLookupBytes6Conformance drives the IPv6 fast path end to end:
// the IPv4 corpus is embedded into 2001:db8::/32, classified by the
// split-64 decomposition from raw frames, and checked against both the
// header-path lookups and the IPv4 linear oracle (which the embedding
// preserves verdict-for-verdict).
func TestLookupBytes6Conformance(t *testing.T) {
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.ACL, Size: 150, Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 200, 108))
	hdrs, frames := frames6For(trace)

	c6, err := repro.New6()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c6.Replace(ruleset.Embed6Set(rs)); err != nil {
		t.Fatal(err)
	}
	if got, want := c6.Len(), rs.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	want := c6.LookupBatch(hdrs)
	out := make([]repro.Result, len(frames))
	if n := c6.LookupBytesBatch(frames, out); n != len(frames) {
		t.Fatalf("decoded %d of %d frames", n, len(frames))
	}
	for i := range frames {
		if out[i] != want[i] {
			t.Fatalf("frame %d: LookupBytesBatch %+v, LookupBatch %+v", i, out[i], want[i])
		}
		res, err := c6.LookupBytes(frames[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if res != want[i] {
			t.Fatalf("frame %d: LookupBytes %+v, LookupBatch %+v", i, res, want[i])
		}
		oracle, ok := rs.Match(trace[i])
		if res.Found != ok || (ok && res.RuleID != oracle.ID) {
			t.Fatalf("frame %d: v6 verdict (%d,%v), v4 oracle (%d,%v)",
				i, res.RuleID, res.Found, oracle.ID, ok)
		}
	}
	// Snapshot must export the embedded ruleset verbatim (sorted by ID).
	snap := c6.Snapshot()
	if len(snap) != rs.Len() {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), rs.Len())
	}
	byID := make(map[int]repro.Rule6, len(snap))
	for _, r := range snap {
		byID[r.ID] = r
	}
	for _, r := range ruleset.Embed6Set(rs) {
		if got, ok := byID[r.ID]; !ok || got != r {
			t.Fatalf("Snapshot rule %d = %+v, want %+v", r.ID, got, r)
		}
	}
}

// TestLookupBytes6ZeroAllocs guards the IPv6 raw path: in-place v6
// decode plus the two 64-bit LPM probes and the combination walk must
// not allocate once warm.
func TestLookupBytes6ZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI step")
	}
	rs, err := repro.GenerateRules(repro.GenConfig{Family: repro.ACL, Size: 200, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	trace := sanitizeTrace(corpusTrace(t, rs, 64, 109))
	_, frames := frames6For(trace)
	c6, err := repro.New6()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c6.Replace(ruleset.Embed6Set(rs)); err != nil {
		t.Fatal(err)
	}
	out := make([]repro.Result, len(frames))
	c6.LookupBytesBatch(frames, out) // warm the pooled scratch
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c6.LookupBytes(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
		c6.LookupBytesBatch(frames, out)
		i++
	})
	if allocs != 0 {
		t.Errorf("IPv6 LookupBytes/LookupBytesBatch allocates %.1f objects/op steady-state, want 0", allocs)
	}
}
