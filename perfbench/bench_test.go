package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	repro "repro"
	"repro/internal/packet"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/workload"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999}, {50000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if pt := tailPercentile(c.n); pt > 0 && c.n-rank(pt, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, float64(pt)/10, c.n-rank(pt, c.n))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	var s []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	d := summarize(s)
	if d.n != 1000 || d.p50 != 500 || d.p99 != 990 || d.tailPt != 990 || d.tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", d)
	}
	if s[0] != 1000 {
		t.Error("summarize sorted its input in place")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// 5% of 40 samples is two at each end: the four outliers go and
	// 1..36 remain.
	v := []float64{1e6, -1e6, 2e6, -2e6}
	for i := 36; i >= 1; i-- {
		v = append(v, float64(i))
	}
	if m := trimmedMean(v); m != 18.5 {
		t.Errorf("trimmedMean = %v, want 18.5", m)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"mpps", "burst_p50_us", "core.batch_ns_per_header", "acl6-frames", "9lives", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

func TestLayerSums(t *testing.T) {
	var l spanLog
	// Two batches: [0,100] with decode [10,30] and core [40,90]; [200,260]
	// with core [200,250].
	l.spans = []span{
		{batch: 1, parent: -1, layer: spanRoot, items: 64, start: 0, end: 100},
		{batch: 1, parent: 0, layer: spanDecode, items: 64, start: 10, end: 30},
		{batch: 1, parent: 0, layer: spanCore, items: 64, start: 40, end: 90},
		{batch: 2, parent: -1, layer: spanRoot, items: 64, start: 200, end: 260},
		{batch: 2, parent: 3, layer: spanCore, items: 32, start: 200, end: 250},
	}
	s := sumLayers(l.spans)
	if s.self[spanRoot] != 30+10 || s.self[spanDecode] != 20 || s.self[spanCore] != 100 {
		t.Errorf("self times = %v", s.self)
	}
	if ns, ok := s.perItemNs(spanCore); !ok || ns != 100.0/96 {
		t.Errorf("core per item = %v, %v", ns, ok)
	}
	if _, ok := s.perItemNs(spanStateProbe); ok {
		t.Error("a layer without spans reports a time")
	}
	if len(s.batchUs) != 2 || s.batchUs[0] != 0.1 || s.batchUs[1] != 0.06 || s.layerUs[0] != 0.07 || s.layerUs[1] != 0.05 {
		t.Errorf("per batch = %v, layers %v", s.batchUs, s.layerUs)
	}
	var m layerSums
	m.merge(s)
	m.merge(s)
	if m.self[spanCore] != 200 || len(m.batchUs) != 4 {
		t.Errorf("merge = %v %v", m.self, m.batchUs)
	}
	over, unattr, ok := traceFracs(100, 110, 90)
	if !ok || over < 0.0999 || over > 0.1001 || unattr < 0.0999 || unattr > 0.1001 {
		t.Errorf("traceFracs(100, 110, 90) = %v %v %v", over, unattr, ok)
	}
	if _, _, ok := traceFracs(100, 100, 70); ok {
		t.Error("a layer sum 30% short passes the tolerance")
	}
}

// fakeEngine answers every frame with a fixed result slice, in order.
type fakeEngine struct{ res []repro.Result }

func (f fakeEngine) LookupBytesBatch(frames [][]byte, out []repro.Result) int {
	copy(out, f.res[:len(frames)])
	return len(frames)
}

func TestCheckCatchesPlantedWrongVerdict(t *testing.T) {
	permit := verdict{id: 1, prio: 1, action: rule.ActionPermit, found: true}
	estab := verdict{id: 2, prio: 2, action: rule.ActionEstablish, found: true}
	in := &inputs{want: []verdict{permit, {}, permit}}
	res := []repro.Result{
		{RuleID: 1, Priority: 1, Action: rule.ActionPermit, Found: true},
		{},
		{RuleID: 1, Priority: 1, Action: rule.ActionPermit, Found: true},
	}
	b := burst{idx: []int{0, 1, 2}, frames: make([][]byte, 3)}
	fr := newFrameRunner(in, fakeEngine{res})
	fr.classify(0, b)
	if n := fr.check(0, b); n != 0 {
		t.Fatalf("correct verdicts: %d wrong", n)
	}
	res[2].RuleID = 7 // the planted wrong verdict
	fr.classify(0, b)
	if n := fr.check(0, b); n != 1 {
		t.Fatalf("planted wrong verdict: %d wrong, want 1", n)
	}

	// On fw-conntrack a packet may also carry its flow's establishing
	// verdict, but no other.
	in.flow, in.estab = []int32{0, 0, 1}, [][]verdict{{estab}, nil}
	res[2].RuleID = 1
	res[1] = repro.Result{RuleID: 2, Priority: 2, Action: rule.ActionEstablish, Found: true}
	fr.classify(0, b)
	if n := fr.check(0, b); n != 0 {
		t.Fatalf("state verdict of the packet's own flow: %d wrong", n)
	}
	res[2] = res[1]
	fr.classify(0, b)
	if n := fr.check(0, b); n != 1 {
		t.Fatalf("state verdict of another flow: %d wrong, want 1", n)
	}

	// A frame the IPv6 decoder must reject counts as wrong if it decodes.
	in.flow, in.estab, res[1], res[2] = nil, nil, repro.Result{}, res[0]
	in.noDecode6 = []bool{false, true, false}
	fr.classify(0, b)
	if n := fr.check(0, b); n != 1 {
		t.Fatalf("undecodable frame reported decoded: %d wrong, want 1", n)
	}
}

// TestRenewalKeepsVerdictsAndFlows replays a small conntrack schedule
// with renewal: every renewed packet must decode to its lane header,
// keep its oracle verdict, take a port no schedule packet carries and
// it has not carried before, and share its flow with no schedule packet
// and no other renewed header.
func TestRenewalKeepsVerdictsAndFlows(t *testing.T) {
	set, err := ruleset.Generate(ruleset.Config{Family: ruleset.FW, Size: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.Generate(set, workload.Config{
		Model: workload.ModelConntrack, Events: 4096, Duration: time.Second,
		Seed: 3, Connections: 64, FloodRatio: 0.2, Family: ruleset.FW,
	})
	if err != nil {
		t.Fatal(err)
	}
	var raw []rule.Header
	for _, ev := range sched.Events {
		raw = append(raw, ev.Header)
	}
	in := &inputs{family: ruleset.FW, rules: set}
	if err := in.setTrace(raw); err != nil {
		t.Fatal(err)
	}
	in.want = oracle(set, in.hdrs)
	in.flows()
	if err := in.renewals(); err != nil {
		t.Fatal(err)
	}
	if len(in.renew) < len(raw)/10 {
		t.Fatalf("%d of %d packets renewable, want at least the flood's tenth", len(in.renew), len(raw))
	}
	orig := make(map[flowKey]bool)
	used := make(map[uint16]bool)
	for _, h := range in.hdrs {
		orig[flowOf(h)] = true
		used[h.SrcPort], used[h.DstPort] = true, true
	}
	renewed := make(map[flowKey]rule.Header)
	ports := make(map[[2]int]map[uint16]bool)
	ls := splitLanes(in, in.frames, workers)
	for pass := 1; pass <= 4; pass++ {
		for w, l := range ls {
			l.renew()
			for _, r := range l.rn {
				h := l.hdrs[r.pos]
				got, err := packet.ParseEthernet(l.frames[r.pos])
				if err != nil || got != h || r.pos < burstLen-1 && l.hdrs[l.n+r.pos] != h {
					t.Fatalf("pass %d lane %d pos %d: frame decodes to %+v (%v), header %+v", pass, w, r.pos, got, err, h)
				}
				if v := ruleVerdict(set.Match(h)); v != in.want[l.idx[r.pos]] {
					t.Fatalf("pass %d: renewed %+v matches %+v, oracle %+v", pass, h, v, in.want[l.idx[r.pos]])
				}
				if used[h.SrcPort] {
					t.Fatalf("pass %d: renewed %+v takes a port the schedule uses", pass, h)
				}
				k := flowOf(h)
				if orig[k] {
					t.Fatalf("pass %d: renewed %+v shares a flow with the schedule", pass, h)
				}
				if o, ok := renewed[k]; ok && o != h {
					t.Fatalf("pass %d: renewed %+v shares a flow with renewed %+v", pass, h, o)
				}
				renewed[k] = h
				id := [2]int{w, r.pos}
				if ports[id] == nil {
					ports[id] = make(map[uint16]bool)
				}
				if ports[id][h.SrcPort] && int(r.n) >= pass {
					t.Fatalf("pass %d: lane %d pos %d repeats port %d with %d to choose from", pass, w, r.pos, h.SrcPort, r.n)
				}
				ports[id][h.SrcPort] = true
			}
		}
	}
}

func TestLaneLeavesLiveWindow(t *testing.T) {
	pool := make([]rule.Rule, 3*livePool)
	for i := range pool {
		pool[i].ID = 100 + i
	}
	live := map[int]bool{}
	for _, r := range pool[:livePool] {
		live[r.ID] = true
	}
	for k := 0; k < 5*len(pool); k++ {
		ins, del := laneStep(k, pool)
		if live[ins.ID] || !live[del.ID] {
			t.Fatalf("step %d inserts %d (live %v) and deletes %d (live %v)", k, ins.ID, live[ins.ID], del.ID, live[del.ID])
		}
		live[ins.ID] = true
		delete(live, del.ID)
		want := liveAfter(k+1, pool)
		if len(want) != len(live) {
			t.Fatalf("after step %d: %d live, liveAfter says %d", k, len(live), len(want))
		}
		for _, r := range want {
			if !live[r.ID] {
				t.Fatalf("after step %d: liveAfter lists %d, which is not live", k, r.ID)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, at the repository root, in
// step with the metrics and workloads this command prints, and within
// the limits its format allows.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	seen := map[string]bool{}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) == 0 || len(b.Command) == 0 {
		t.Errorf("size %d, run_seconds %d, paths %v, command %v", len(raw), b.RunSeconds, b.Paths, b.Command)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for i, w := range b.Workloads {
		known := false
		for _, k := range workloads {
			known = known || k == w.Name
		}
		if !known || seen[w.Name] || !validName(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars)", i, w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	validUnit := func(u string) bool {
		if u == "" || len(u) > 16 {
			return false
		}
		for _, c := range u {
			if !strings.ContainsRune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-", c) {
				return false
			}
		}
		return true
	}
	var setupBound, maxBound float64
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s, the command prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if seen[m.Name] || !validName(m.Name) || !validUnit(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %+v", m)
		}
		seen[m.Name] = true
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: %+v", m)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s, the command prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] || !validName(m.Name) || !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v", m)
		}
		seen[m.Name] = true
	}
}
