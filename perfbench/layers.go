package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/exactmatch"
	"repro/internal/flowcache"
	"repro/internal/fwstate"
	"repro/internal/label"
	"repro/internal/lpm"
	"repro/internal/packet"
	"repro/internal/rangematch"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// timedPasses is how many times a standalone measurement walks its
// inputs; the reported figure is the median pass.
const timedPasses = 5

// nsPerItem times fn over n items timedPasses times on the thread's CPU
// clock, after one untimed pass, and returns the median ns per item.
func nsPerItem(n int, fn func()) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fn()
	var per []float64
	for i := 0; i < timedPasses; i++ {
		c0 := threadCPU()
		fn()
		per = append(per, float64(threadCPU()-c0)/float64(n))
	}
	return median(per)
}

// standalone holds flow-state and flow-cache figures measured on fresh
// tables filled with the workload's headers.
type standalone struct {
	stateProbeNs, stateFillNs, cacheProbeNs, cacheFillNs float64
	stateAllocs, cacheAllocs                             float64
}

func standaloneTables(hs []rule.Header) standalone {
	var sa standalone
	res := repro.Result{Found: true, RuleID: 1, Priority: 1, Action: rule.ActionEstablish}
	keys := make([]fwstate.Key, len(hs))
	for i, h := range hs {
		keys[i] = fwstate.KeyOf(h)
	}
	st := fwstate.New(tableEntries, stateTTL)
	sa.stateFillNs = nsPerItem(len(keys), func() {
		for _, k := range keys {
			st.Put(0, k, res)
		}
	})
	sa.stateProbeNs = nsPerItem(len(keys), func() {
		for _, k := range keys {
			st.Get(k)
		}
	})
	c := flowcache.New(tableEntries)
	sa.cacheFillNs = nsPerItem(len(hs), func() {
		for _, h := range hs {
			c.Put(0, h, res)
		}
	})
	sa.cacheProbeNs = nsPerItem(len(hs), func() {
		for _, h := range hs {
			c.Get(h)
		}
	})
	// AllocsPerRun counts whole allocations per call, so these are exact.
	i := 0
	sa.stateAllocs = testing.AllocsPerRun(len(keys), func() {
		st.Put(0, keys[i%len(keys)], res)
		i++
	})
	sa.cacheAllocs = testing.AllocsPerRun(len(hs), func() {
		c.Put(0, hs[i%len(hs)], res)
		i++
	})
	return sa
}

// standaloneDecode times packet.Burst.DecodeV4 over the frames in
// bursts, per frame.
func standaloneDecode(frames [][]byte) float64 {
	var b packet.Burst
	return nsPerItem(len(frames), func() {
		for p := 0; p+burstLen <= len(frames); p += burstLen {
			b.DecodeV4(frames[p : p+burstLen])
		}
	})
}

// standaloneCore builds the workload family's plain engine (IPv4
// decomposition, or split-64 IPv6 over the embedded rules) and times
// its unwrapped LookupBatchInto over the trace headers (h6 for IPv6) in
// bursts, on the thread's CPU clock like the field engines. It returns
// the core time per header.
func standaloneCore(in *inputs, h6 []rule.Header6, v6 bool) (float64, error) {
	b, err := build(frameSpec{v6: v6}, in)
	if err != nil {
		return 0, err
	}
	out := make([]repro.Result, burstLen)
	n := len(in.hdrs) / burstLen * burstLen
	if v6 {
		return nsPerItem(n, func() {
			for p := 0; p < n; p += burstLen {
				b.core6.LookupBatchInto(h6[p:p+burstLen], out)
			}
		}), nil
	}
	return nsPerItem(n, func() {
		for p := 0; p < n; p += burstLen {
			b.core4.LookupBatchInto(in.hdrs[p:p+burstLen], out)
		}
	}), nil
}

// coreCounters sets the core lookup counters from two Stats readings.
func coreCounters(r *report, s0, s1 repro.Stats, b *built) {
	ops := float64(s1.ProbeOps - s0.ProbeOps)
	if ops <= 0 {
		r.problem("core counters: no lookups counted")
		ops = 1
	}
	r.set("core.probes_per_lookup", float64(s1.Probes-s0.Probes)/ops)
	r.set("core.first_hit_probes_per_lookup", float64(s1.FirstHitProbes-s0.FirstHitProbes)/ops)
	r.set("core.max_list_len", float64(s1.MaxListLen))
	r.set("core.hw_overflows", float64(s1.HardwareOverflows-s0.HardwareOverflows))
	r.set("core.model_cycles_per_lookup", b.model().CyclesPerPacket)
}

// fieldEngines builds each field engine standalone, with core's default
// algorithms, from the ruleset's distinct match specifications, and
// times one lookup per trace header. IPv6 figures use the embedded
// headers. core.combine_ns is derived: the standalone core time per
// header minus the workload family's field engines, all on the thread's
// CPU clock over the same headers.
func fieldEngines(r *report, in *inputs, v6 bool) error {
	var alloc [7]label.Allocator
	src, _ := lpm.NewMultiBitTrie[lpm.V4](8)
	dst, _ := lpm.NewMultiBitTrie[lpm.V4](8)
	src6, _ := lpm.NewSplit6(8)
	dst6, _ := lpm.NewSplit6(8)
	sp := rangematch.NewRegisterBank(0)
	dp := rangematch.NewRegisterBank(0)
	pr := exactmatch.NewDirectIndex()
	seen := make(map[any]bool)
	once := func(field int, spec any) bool {
		k := [2]any{field, spec}
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	for _, ru := range in.rules.Rules() {
		r6 := ruleset.Embed6Rule(ru)
		if once(0, ru.SrcIP.Canonical()) {
			src.Insert(lpm.V4Prefix(ru.SrcIP).Canonical(), alloc[0].Alloc())
			src6.Insert(lpm.V6Prefix(r6.SrcIP).Canonical(), alloc[1].Alloc())
		}
		if once(1, ru.DstIP.Canonical()) {
			dst.Insert(lpm.V4Prefix(ru.DstIP).Canonical(), alloc[2].Alloc())
			dst6.Insert(lpm.V6Prefix(r6.DstIP).Canonical(), alloc[3].Alloc())
		}
		if once(2, ru.SrcPort) {
			if _, err := sp.Insert(ru.SrcPort, alloc[4].Alloc()); err != nil {
				r.problem("rangematch: %v", err)
			}
		}
		if once(3, ru.DstPort) {
			if _, err := dp.Insert(ru.DstPort, alloc[5].Alloc()); err != nil {
				r.problem("rangematch: %v", err)
			}
		}
		if once(4, ru.Proto) {
			var err error
			if ru.Proto.IsWildcard() {
				pr.InsertWildcard(alloc[6].Alloc())
			} else if _, err = pr.Insert(ru.Proto.Value, alloc[6].Alloc()); err != nil {
				r.problem("exactmatch: %v", err)
			}
		}
	}
	hs := in.hdrs
	h6 := make([]rule.Header6, len(hs))
	for i, h := range hs {
		h6[i] = ruleset.Embed6Header(h)
	}
	buf := make([]label.Label, 0, 64)
	n := len(hs)
	f := map[string]float64{
		"lpm.src_ns": nsPerItem(n, func() {
			for _, h := range hs {
				buf, _ = src.Lookup(lpm.V4(h.SrcIP), buf[:0])
			}
		}),
		"lpm.dst_ns": nsPerItem(n, func() {
			for _, h := range hs {
				buf, _ = dst.Lookup(lpm.V4(h.DstIP), buf[:0])
			}
		}),
		"lpm.split6_src_ns": nsPerItem(n, func() {
			for _, h := range h6 {
				buf, _ = src6.Lookup(lpm.V6FromAddr(h.SrcIP), buf[:0])
			}
		}),
		"lpm.split6_dst_ns": nsPerItem(n, func() {
			for _, h := range h6 {
				buf, _ = dst6.Lookup(lpm.V6FromAddr(h.DstIP), buf[:0])
			}
		}),
		"rangematch.sport_ns": nsPerItem(n, func() {
			for _, h := range hs {
				buf, _ = sp.Lookup(h.SrcPort, buf[:0])
			}
		}),
		"rangematch.dport_ns": nsPerItem(n, func() {
			for _, h := range hs {
				buf, _ = dp.Lookup(h.DstPort, buf[:0])
			}
		}),
		"exactmatch.proto_ns": nsPerItem(n, func() {
			for _, h := range hs {
				buf, _ = pr.Lookup(h.Proto, buf[:0])
			}
		}),
	}
	for name, v := range f {
		r.set(name, v)
	}
	fields := f["lpm.src_ns"] + f["lpm.dst_ns"]
	if v6 {
		fields = f["lpm.split6_src_ns"] + f["lpm.split6_dst_ns"]
	}
	fields += f["rangematch.sport_ns"] + f["rangematch.dport_ns"] + f["exactmatch.proto_ns"]
	coreNs, err := standaloneCore(in, h6, v6)
	if err != nil {
		return err
	}
	r.set("core.combine_ns", coreNs-fields)
	r.note("core.combine_ns is derived: standalone core %.1f ns/header minus field engines %.1f ns/header, thread CPU over the same headers",
		coreNs, fields)
	return nil
}

// coreUpdates times the plain decomposition engine's control plane with
// the control lane's update sequence: build, insert, delete, and one
// full-ruleset Replace.
func coreUpdates(r *report, in *inputs, v6 bool) error {
	b, buildS, err := buildTimed(frameSpec{v6: v6}, in, 3)
	if err != nil {
		return err
	}
	r.set("core.build_s", buildS)
	lr, err := runSteps(b.ctl, in.pool)
	r.count(lr.ops(), 0)
	if err != nil {
		r.count(1, 1)
		r.problem("core updates: %v", err)
	}
	r.set("core.insert_us_p50", summarize(lr.ins).p50)
	r.set("core.delete_us_p50", summarize(lr.del).p50)
	r.set("core.replace_s", swapBack(r, b.ctl, in, lr.steps).Seconds())
	return nil
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeMetrics sets the Go runtime figures read around a phase that
// produced the given number of verdicts.
func runtimeMetrics(r *report, ms0, ms1 runtime.MemStats, verdicts int) {
	if verdicts < 1 {
		verdicts = 1
	}
	r.set("runtime.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(verdicts))
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	r.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process ("self"
// or a pid) from procfs; 0 if unavailable.
func peakRSSMiB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// machineStamp names the machine every output was measured on.
func machineStamp() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q; ctl traffic crosses the host loopback interface, not a link",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}
