package repro_test

import (
	"testing"

	repro "repro"
	"repro/internal/tables"
)

// TestFlowLayerOrder pins the order of the flow layers in a
// WithFlowCache+WithFlowState composition: state wraps the cache and the
// cache wraps the classifier. A reverse-direction packet of an
// established flow is answered by state without touching the cache or
// the classifier, and a cache hit never reaches the classifier. Both
// batch entry points (parsed headers and raw frames) are checked.
func TestFlowLayerOrder(t *testing.T) {
	rules := []repro.Rule{
		{
			ID: 1, Priority: 1,
			SrcIP:   repro.MustParsePrefix("10.0.0.0/8"),
			SrcPort: repro.FullPortRange(), DstPort: repro.ExactPort(443),
			Proto: repro.ExactProto(repro.ProtoTCP), Action: repro.ActionEstablish,
		},
		{
			ID: 2, Priority: 2,
			SrcIP:   repro.MustParsePrefix("10.0.0.0/8"),
			SrcPort: repro.FullPortRange(), DstPort: repro.ExactPort(80),
			Proto: repro.ExactProto(repro.ProtoTCP), Action: repro.ActionPermit,
		},
		{
			ID: 3, Priority: 9,
			SrcPort: repro.FullPortRange(), DstPort: repro.FullPortRange(),
			Proto: repro.AnyProto(), Action: repro.ActionDeny,
		},
	}
	rs, err := repro.NewRuleSet(rules)
	if err != nil {
		t.Fatal(err)
	}
	est := repro.Header{SrcIP: 0x0a000001, DstIP: 0x08080808, SrcPort: 40000, DstPort: 443, Proto: repro.ProtoTCP}
	web := repro.Header{SrcIP: 0x0a000002, DstIP: 0x08080808, SrcPort: 40001, DstPort: 80, Proto: repro.ProtoTCP}

	paths := []struct {
		name   string
		lookup func(eng repro.Engine, h repro.Header) repro.Result
	}{
		{"LookupBatchInto", func(eng repro.Engine, h repro.Header) repro.Result {
			out := make([]repro.Result, 1)
			eng.LookupBatchInto([]repro.Header{h}, out)
			return out[0]
		}},
		{"LookupBytesBatch", func(eng repro.Engine, h repro.Header) repro.Result {
			out := make([]repro.Result, 1)
			if n := eng.LookupBytesBatch(framesFor([]repro.Header{h}), out); n != 1 {
				t.Fatalf("decoded %d frames, want 1", n)
			}
			return out[0]
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			eng, err := repro.New(repro.WithRules(rs), repro.WithFlowCache(1024), repro.WithFlowState(1024, 0))
			if err != nil {
				t.Fatal(err)
			}
			cache, ok := tables.CacheLayer(eng)
			if !ok {
				t.Fatal("no cache layer in a cached composition")
			}
			state, ok := eng.(interface{ StateStats() repro.FlowStateStats })
			if !ok {
				t.Fatal("state is not the outermost layer")
			}
			core, ok := tables.Unwrapped(eng).(interface{ Stats() repro.Stats })
			if !ok {
				t.Fatal("core exposes no Stats")
			}

			// Forward packets run through all three layers once.
			if res := p.lookup(eng, est); res.RuleID != 1 {
				t.Fatalf("forward establish = %+v", res)
			}
			if res := p.lookup(eng, web); res.RuleID != 2 {
				t.Fatalf("forward permit = %+v", res)
			}

			// The reply of the established flow is answered by state.
			cache0, state0, core0 := cache.CacheStats(), state.StateStats(), core.Stats()
			if res := p.lookup(eng, reverseHeader(est)); res.RuleID != 1 || res.Action != repro.ActionEstablish {
				t.Fatalf("reverse of established flow = %+v", res)
			}
			if got := state.StateStats(); got.Hits != state0.Hits+1 {
				t.Errorf("state hits %d -> %d, want one more", state0.Hits, got.Hits)
			}
			if got := cache.CacheStats(); got != cache0 {
				t.Errorf("state hit moved the cache counters: %+v -> %+v", cache0, got)
			}
			if got := core.Stats(); got.Probes != core0.Probes || got.ProbeOps != core0.ProbeOps {
				t.Errorf("state hit reached the core: probes %d -> %d, ops %d -> %d",
					core0.Probes, got.Probes, core0.ProbeOps, got.ProbeOps)
			}

			// A repeated non-establishing flow misses state and hits the
			// cache, still without reaching the core.
			cache0, core0 = cache.CacheStats(), core.Stats()
			if res := p.lookup(eng, web); res.RuleID != 2 {
				t.Fatalf("repeated permit = %+v", res)
			}
			if got := cache.CacheStats(); got.Hits != cache0.Hits+1 {
				t.Errorf("cache hits %d -> %d, want one more", cache0.Hits, got.Hits)
			}
			if got := core.Stats(); got.Probes != core0.Probes || got.ProbeOps != core0.ProbeOps {
				t.Errorf("cache hit reached the core: probes %d -> %d, ops %d -> %d",
					core0.Probes, got.Probes, core0.ProbeOps, got.ProbeOps)
			}
		})
	}
}
