package main

import (
	"fmt"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/flowcache"
	"repro/internal/fwstate"
	"repro/internal/packet"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/tables"
)

const (
	tableEntries = 65536     // flow-cache and flow-state slots on fw-conntrack
	stateTTL     = time.Hour // longer than any run, so no flow expires
	setupRepeats = 5         // engine builds per run; setup_s is their median
	warmup       = time.Second
)

// frameSpec is the engine composition of a frame workload.
type frameSpec struct {
	v6, cached, stateful bool
}

func specOf(wl string) frameSpec {
	switch wl {
	case "fw-conntrack":
		return frameSpec{cached: true, stateful: true}
	case "acl6-frames":
		return frameSpec{v6: true}
	}
	return frameSpec{}
}

// frameEngine is the raw-frame entry point every composition shares.
type frameEngine interface {
	LookupBytesBatch(frames [][]byte, out []repro.Result) int
}

// built is one engine composition with its control plane and its
// unwrapped core.
type built struct {
	eng   frameEngine
	ctl   target
	core4 repro.Engine       // the decomposition engine under any wrappers (IPv4)
	core6 *repro.Classifier6 // the IPv6 engine
	stats func() repro.Stats
	model func() repro.Throughput
}

func build(spec frameSpec, in *inputs) (*built, error) {
	if spec.v6 {
		e, err := repro.New6()
		if err != nil {
			return nil, err
		}
		if _, err := e.Replace(ruleset.Embed6Set(in.rules)); err != nil {
			return nil, err
		}
		return &built{eng: e, ctl: engine6Target(e), core6: e, stats: e.Stats, model: e.ModelThroughput}, nil
	}
	opts := []repro.Option{repro.WithRules(in.rules)}
	if spec.cached {
		opts = append(opts, repro.WithFlowCache(tableEntries))
	}
	if spec.stateful {
		opts = append(opts, repro.WithFlowState(tableEntries, stateTTL))
	}
	e, err := repro.New(opts...)
	if err != nil {
		return nil, err
	}
	core, ok := tables.Unwrapped(e).(*repro.Classifier)
	if !ok {
		return nil, fmt.Errorf("engine core is %T, want the decomposition classifier", tables.Unwrapped(e))
	}
	return &built{eng: e, ctl: engineTarget(e), core4: core, stats: core.Stats, model: core.ModelThroughput}, nil
}

// buildTimed builds the composition repeats times and returns the last
// build with the median CPU time of a build.
func buildTimed(spec frameSpec, in *inputs, repeats int) (*built, float64, error) {
	var b *built
	var times []float64
	for i := 0; i < repeats; i++ {
		b = nil // let the previous build be collected before timing the next
		runtime.GC()
		c0 := processCPU()
		nb, err := build(spec, in)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, (processCPU() - c0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// frameRunner classifies lane bursts through a composed engine and
// checks every verdict.
type frameRunner struct {
	in      *inputs
	eng     frameEngine
	out     [][]repro.Result
	decoded []int
}

func newFrameRunner(in *inputs, eng frameEngine) *frameRunner {
	fr := &frameRunner{in: in, eng: eng, out: make([][]repro.Result, workers), decoded: make([]int, workers)}
	for w := range fr.out {
		fr.out[w] = make([]repro.Result, burstLen)
	}
	return fr
}

func (fr *frameRunner) classify(w int, b burst) {
	fr.decoded[w] = fr.eng.LookupBytesBatch(b.frames, fr.out[w])
}

func (fr *frameRunner) check(w int, b burst) int {
	decodable, wrong := 0, 0
	for j, i := range b.idx {
		if !fr.in.undecodable(i) {
			decodable++
		}
		if !fr.in.ok(i, fr.out[w][j]) {
			wrong++
		}
	}
	if d := fr.decoded[w] - decodable; d != 0 {
		wrong += max(d, -d)
	}
	return wrong
}

// onePass classifies every lane once, in order, checking each verdict.
func onePass(ls []*lane, classify func(w int, b burst), check func(w int, b burst) int) (checked, wrong int) {
	for w, l := range ls {
		for p := 0; p < l.n; p += burstLen {
			b := l.at(p)
			classify(w, b)
			wrong += check(w, b)
			checked += len(b.idx)
		}
	}
	return checked, wrong
}

// runFrames is the untraced run of a frame workload.
func runFrames(o options, in *inputs, r *report) error {
	spec := specOf(o.workload)
	frames := in.frames
	if spec.v6 {
		frames = in.frames6
	}
	ls := splitLanes(in, frames, workers)
	b, setup, err := buildTimed(spec, in, setupRepeats)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	if o.trace {
		return traceFrames(o, in, r, spec, ls, b)
	}
	fr := newFrameRunner(in, b.eng)
	st := closedLoop(ls, warmup, o.window, onCPU(fr.classify), fr.check)
	r.count(st.checked, st.wrong)
	r.latency("burst service time, thread CPU", "burst_p50_us", st.lat, false)
	r.set("mpps", st.mpps())
	r.note("throughput: %d frames in %v of wall time", st.frames, st.elapsed)

	runtime.GC() // start the lane on a collected heap, as every run does
	lr, err := runSteps(b.ctl, in.pool)
	r.count(lr.ops(), 0)
	if err != nil {
		r.count(1, 1)
		r.problem("%v", err)
	}
	r.latency("update step (insert and delete), thread CPU", "update_us", lr.step, true)
	r.set("swap_s", swapBack(r, b.ctl, in, lr.steps).Seconds())
	checked, wrong := onePass(ls, fr.classify, fr.check)
	r.count(checked, wrong)
	r.set("mem_mib", peakRSSMiB("self"))
	return nil
}

// replica drives one burst through the same layers as the composed
// engine, in the engine's order (decode, state, cache, core on misses,
// fills), calling each layer's public functions and recording a span
// around each call.
type replica struct {
	v6    bool
	core4 repro.Engine
	core6 *repro.Classifier6
	state *fwstate.Table
	cache *flowcache.Cache
	sc    []*replicaScratch
}

// Which layer answered a header.
const (
	byCore uint8 = iota
	byState
	byCache
)

type replicaScratch struct {
	log  spanLog
	dec  packet.Burst
	out  []repro.Result
	by   []uint8
	res  []repro.Result
	sIdx []int
	sHdr []rule.Header
	sKey []fwstate.Key
	sHK  []uint64
	cIdx []int
	cHdr []rule.Header
}

func newReplica(spec frameSpec, b *built) *replica {
	rp := &replica{v6: spec.v6, core4: b.core4, core6: b.core6}
	if spec.stateful {
		rp.state = fwstate.New(tableEntries, stateTTL)
	}
	if spec.cached {
		rp.cache = flowcache.New(tableEntries)
	}
	for w := 0; w < workers; w++ {
		rp.sc = append(rp.sc, &replicaScratch{
			out: make([]repro.Result, burstLen), by: make([]uint8, burstLen),
			res: make([]repro.Result, burstLen),
		})
		rp.sc[w].log.spans = make([]span, 0, 1<<20)
	}
	return rp
}

func (rp *replica) step(w int, b burst) {
	frames := b.frames
	sc := rp.sc[w]
	lg := &sc.log
	root := lg.begin()
	for i := range sc.out {
		sc.out[i], sc.by[i] = repro.Result{}, byCore
	}
	if rp.v6 {
		t0 := clock()
		hs, idx := sc.dec.DecodeV6(frames)
		t1 := clock()
		lg.add(root, spanDecode, t0, t1, len(hs))
		res := sc.res[:len(hs)]
		t0 = clock()
		rp.core6.LookupBatchInto(hs, res)
		t1 = clock()
		lg.add(root, spanCore, t0, t1, len(hs))
		for j, r := range res {
			sc.out[idx[j]] = r
		}
		lg.finish(root, len(frames))
		return
	}
	t0 := clock()
	hs, idx := sc.dec.DecodeV4(frames)
	t1 := clock()
	lg.add(root, spanDecode, t0, t1, len(hs))

	// State probe: hits are answered, misses go on with their keys.
	var stateGen uint64
	if rp.state != nil {
		sIdx, sHdr, sKey, sHK := sc.sIdx[:0], sc.sHdr[:0], sc.sKey[:0], sc.sHK[:0]
		t0 = clock()
		for j, h := range hs {
			k := fwstate.KeyOf(h)
			hk := rp.state.Hash(k)
			res, gen, ok := rp.state.GetHashed(hk, k)
			if ok {
				sc.out[idx[j]], sc.by[idx[j]] = res, byState
				continue
			}
			if len(sIdx) == 0 {
				stateGen = gen
			}
			sIdx, sHdr, sKey, sHK = append(sIdx, idx[j]), append(sHdr, h), append(sKey, k), append(sHK, hk)
		}
		t1 = clock()
		lg.add(root, spanStateProbe, t0, t1, len(hs))
		sc.sIdx, sc.sHdr, sc.sKey, sc.sHK = sIdx, sHdr, sKey, sHK
		hs, idx = sHdr, sIdx
	}
	// Cache probe over what state did not answer.
	var cacheGen uint64
	if rp.cache != nil {
		cIdx, cHdr := sc.cIdx[:0], sc.cHdr[:0]
		t0 = clock()
		for j, h := range hs {
			res, gen, ok := rp.cache.Get(h)
			if ok {
				sc.out[idx[j]], sc.by[idx[j]] = res, byCache
				continue
			}
			if len(cIdx) == 0 {
				cacheGen = gen
			}
			cIdx, cHdr = append(cIdx, idx[j]), append(cHdr, h)
		}
		t1 = clock()
		lg.add(root, spanCacheProbe, t0, t1, len(hs))
		sc.cIdx, sc.cHdr = cIdx, cHdr
		hs, idx = cHdr, cIdx
	}
	// Core over the remaining misses.
	res := sc.res[:len(hs)]
	if len(hs) > 0 {
		t0 = clock()
		rp.core4.LookupBatchInto(hs, res)
		t1 = clock()
		lg.add(root, spanCore, t0, t1, len(hs))
	}
	for j, r := range res {
		sc.out[idx[j]] = r
	}
	if rp.cache != nil && len(hs) > 0 {
		t0 = clock()
		for j, h := range hs {
			rp.cache.Put(cacheGen, h, res[j])
		}
		t1 = clock()
		lg.add(root, spanCacheFill, t0, t1, len(hs))
	}
	if rp.state != nil && len(sc.sIdx) > 0 {
		n := 0
		t0 = clock()
		for j, i := range sc.sIdx {
			if r := sc.out[i]; r.Found && r.Action == rule.ActionEstablish {
				rp.state.PutHashed(sc.sHK[j], stateGen, sc.sKey[j], r)
				n++
			}
		}
		t1 = clock()
		lg.add(root, spanStateFill, t0, t1, n)
	}
	lg.finish(root, len(frames))
}

// check judges the replica's verdicts: a header answered by state must
// carry a verdict its flow established, any other the oracle's.
func (rp *replica) check(in *inputs, w int, b burst) int {
	sc := rp.sc[w]
	wrong := 0
	for j, i := range b.idx {
		v := verdictOf(sc.out[j])
		if sc.by[j] == byState {
			if in.estab == nil || !contains(in.estab[in.flow[i]], v) {
				wrong++
			}
		} else if v != in.expect(i) {
			wrong++
		}
	}
	return wrong
}

// equalityPass drives a fresh composed engine and a fresh replica over
// one pass of every lane, interleaving the lanes burst by burst on one
// goroutine so both see the same operation order, and counts the
// headers whose verdicts differ.
func equalityPass(spec frameSpec, in *inputs, ls []*lane) (checked, differ int, err error) {
	b, err := build(spec, in)
	if err != nil {
		return 0, 0, err
	}
	rp := newReplica(spec, b)
	out := make([]repro.Result, burstLen)
	for p := 0; ; p += burstLen {
		done := true
		for _, l := range ls {
			if p >= l.n {
				continue
			}
			done = false
			bu := l.at(p)
			b.eng.LookupBytesBatch(bu.frames, out)
			rp.step(0, bu)
			for j := range bu.idx {
				if verdictOf(out[j]) != verdictOf(rp.sc[0].out[j]) {
					differ++
				}
			}
			checked += len(bu.idx)
		}
		if done {
			return checked, differ, nil
		}
	}
}

// traceFrames is the traced run of a frame workload: a half window
// through the composed engine alone, for the runtime and layer
// counters, then a half window in which every burst goes through the
// composed engine, timed, and then through the traced replica, so the
// two are compared over the same stretch of time; then the standalone
// layer measurements.
func traceFrames(o options, in *inputs, r *report, spec frameSpec, ls []*lane, b *built) error {
	half := o.window / 2
	fr := newFrameRunner(in, b.eng)
	cache0, state0 := layerCounters(b.eng)
	ms0 := readMem()
	st := closedLoop(ls, warmup/2, half, onWall(fr.classify), fr.check)
	ms1 := readMem()
	cache1, state1 := layerCounters(b.eng)
	r.count(st.checked, st.wrong)
	runtimeMetrics(r, ms0, ms1, st.checked)

	rp := newReplica(spec, b)
	timed := onWall(fr.classify)
	turns := make([]int, len(ls))
	// Whichever goes second finds the burst's data in cache, so the two
	// take turns going first.
	measure := func(w int, bu burst) float64 {
		turns[w]++
		if turns[w]%2 == 0 {
			rp.step(w, bu)
			return timed(w, bu)
		}
		us := timed(w, bu)
		rp.step(w, bu)
		return us
	}
	check := func(w int, bu burst) int { return fr.check(w, bu) + rp.check(in, w, bu) }
	// The replica's own tables warm up before the recorded window.
	wst := closedLoop(ls, 0, warmup/2, measure, check)
	r.count(wst.checked, wst.wrong)
	for _, sc := range rp.sc {
		sc.log = spanLog{spans: sc.log.spans[:0]}
	}
	core0 := b.stats()
	tst := closedLoop(ls, 0, half, measure, check)
	core1 := b.stats()
	r.count(tst.checked, tst.wrong)
	untraced := median(tst.lat)

	var sums layerSums
	var logs []*spanLog
	for _, sc := range rp.sc {
		sums.merge(sumLayers(sc.log.spans))
		logs = append(logs, &sc.log)
	}
	coreCounters(r, core0, core1, b)
	traced, layerUs := median(sums.batchUs), median(sums.layerUs)
	overhead, unattr, within := traceFracs(untraced, traced, layerUs)
	r.set("trace.overhead_frac", overhead)
	r.set("trace.unattributed_frac", unattr)
	r.note("trace: median batch untraced %.2f us, traced %.2f us, layer sum %.2f us (tolerance ±%.0f%%)",
		untraced, traced, layerUs, layerTolerance*100)
	if !within {
		r.problem("layer sum %.2f us is not within %.0f%% of the untraced batch time %.2f us", layerUs, layerTolerance*100, untraced)
	}
	for l := spanDecode; l < numSpanLayers; l++ {
		if ns, ok := sums.perItemNs(l); ok {
			r.note("layer %-16s %8.1f ns/item over %d items", spanNames[l], ns, sums.items[l])
		}
	}
	decodeNs, _ := sums.perItemNs(spanDecode)
	coreNs, _ := sums.perItemNs(spanCore)
	r.set("packet.decode_ns", decodeNs)
	r.set("core.batch_ns_per_header", coreNs)

	// Conntrack and cache: spans where the workload has the layer,
	// standalone tables where it does not.
	sa := standaloneTables(in.hdrs)
	stateProbe, ok1 := sums.perItemNs(spanStateProbe)
	stateFill, ok2 := sums.perItemNs(spanStateFill)
	cacheProbe, ok3 := sums.perItemNs(spanCacheProbe)
	cacheFill, ok4 := sums.perItemNs(spanCacheFill)
	r.set("fwstate.probe_ns", pick(ok1, stateProbe, sa.stateProbeNs))
	r.set("fwstate.fill_ns", pick(ok2, stateFill, sa.stateFillNs))
	r.set("flowcache.probe_ns", pick(ok3, cacheProbe, sa.cacheProbeNs))
	r.set("flowcache.fill_ns", pick(ok4, cacheFill, sa.cacheFillNs))
	r.set("fwstate.allocs_per_fill", sa.stateAllocs)
	r.set("flowcache.allocs_per_fill", sa.cacheAllocs)
	r.set("fwstate.hit_frac", hitFrac(state1.Hits-state0.Hits, state1.Misses-state0.Misses))
	r.set("fwstate.evictions", float64(state1.Evictions-state0.Evictions))
	r.set("flowcache.hit_frac", hitFrac(cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses))
	r.set("flowcache.evictions", float64(cache1.Evictions-cache0.Evictions))

	checked, differ, err := equalityPass(spec, in, ls)
	if err != nil {
		return err
	}
	r.count(checked, differ)
	if differ > 0 {
		r.problem("layer-by-layer verdicts differ from the composed engine's on %d of %d headers", differ, checked)
	}

	if err := fieldEngines(r, in, spec.v6); err != nil {
		return err
	}
	if err := coreUpdates(r, in, spec.v6); err != nil {
		return err
	}
	if err := ctlLayer(o, in, r); err != nil {
		return err
	}
	path, err := writeSpans(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed), machineStamp(), logs)
	if err != nil {
		return err
	}
	r.note("spans: %s", path)
	return nil
}

func pick(ok bool, a, b float64) float64 {
	if ok {
		return a
	}
	return b
}

func hitFrac(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// layerCounters reads the flow-cache and flow-state counters the engine
// exports; zero when the composition lacks the layer.
func layerCounters(e frameEngine) (repro.FlowCacheStats, repro.FlowStateStats) {
	var c repro.FlowCacheStats
	var s repro.FlowStateStats
	if eng, ok := e.(repro.Engine); ok {
		if cl, ok := tables.CacheLayer(eng); ok {
			c = cl.CacheStats()
		}
	}
	if sl, ok := e.(interface{ StateStats() repro.FlowStateStats }); ok {
		s = sl.StateStats()
	}
	return c, s
}
