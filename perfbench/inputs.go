package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	repro "repro"
	"repro/internal/packet"
	"repro/internal/rule"
	"repro/internal/ruleset"
	"repro/internal/workload"
)

// Input sizes shared by every workload.
const (
	ruleCount  = 10000 // base ruleset
	traceLen   = 65536 // headers in the trace or conntrack schedule
	burstLen   = 64    // frames per burst, headers per MLOOKUP
	poolLen    = 4096  // generated rules the control lane inserts and deletes
	livePool   = 32    // pool rules live at once once the lane is running
	conns      = 4096  // live connections of the conntrack schedule
	floodRatio = 0.1   // share of one-shot SYN-flood packets in it
	hitRatio   = 0.9   // share of trace headers drawn from inside a rule
	workers    = 2     // data-path goroutines; the machine has two cores
)

// defaultSeed is the seed whose inputs are pinned by pinnedInputs.
const defaultSeed = 1

// pinnedInputs is the sha256 of each workload's generated inputs at
// defaultSeed (see inputs.digest). A change to the ruleset, trace,
// schedule or frame generators shows up here as a hash mismatch, which
// fails the run instead of silently changing the traffic.
var pinnedInputs = map[string]string{
	"acl-frames":   "b1ece75f34ff8a5ba300b27118e7b7eceab23e39d2527996306de9a797fe77d6",
	"fw-conntrack": "3b61a6a65681fe6d7a1d414de109c74a0137583f4f938128893667843d2ad3aa",
	"acl6-frames":  "accd4bd7673ff6626c92f6b0dc57d8c22c4171b56aabdab42c87c0888aba10a7",
}

// verdict is the part of a lookup result that classification decides.
type verdict struct {
	id, prio int
	action   rule.Action
	found    bool
}

func verdictOf(r repro.Result) verdict {
	if !r.Found {
		return verdict{}
	}
	return verdict{r.RuleID, r.Priority, r.Action, true}
}

func ruleVerdict(r rule.Rule, ok bool) verdict {
	if !ok {
		return verdict{}
	}
	return verdict{r.ID, r.Priority, r.Action, true}
}

// inputs is everything a workload feeds the program, generated from the
// seed before any timing starts.
type inputs struct {
	family  ruleset.Family
	rules   *rule.Set
	hdrs    []rule.Header // headers as the frames carry them, in order
	frames  [][]byte      // Ethernet/IPv4 frame of each header
	frames6 [][]byte      // Ethernet/IPv6 frame of each embedded header (acl6-frames)
	// noDecode6 marks the IPv6 frames the decoder rejects: headers whose
	// protocol number is an IPv6 extension-header type (0, 43, 60) have
	// no IPv6 encoding, so their frames must come back undecoded with
	// the zero result.
	noDecode6 []bool
	want      []verdict // rule.Set.Match of each header
	// flow and estab (fw-conntrack) give each header's flow and the
	// verdicts that flow's state entry can hold: an entry is installed
	// by a packet of either direction whose own verdict establishes.
	flow  []int32
	estab [][]verdict
	// allowed and renew (fw-conntrack) are the one-shot flows' renewals:
	// see renewals.
	allowed []uint16
	renew   []renewal
	pool    []rule.Rule // the control lane's insert/delete pool
}

// generate builds the inputs of a workload from the seed.
func generate(wl string, seed int64) (*inputs, error) {
	in := &inputs{family: ruleset.ACL}
	if wl == "fw-conntrack" {
		in.family = ruleset.FW
	}
	set, err := ruleset.Generate(ruleset.Config{Family: in.family, Size: ruleCount, Seed: seed})
	if err != nil {
		return nil, err
	}
	var raw []rule.Header
	if wl == "fw-conntrack" {
		rs := append([]rule.Rule(nil), set.Rules()...)
		for i := range rs {
			if i%2 == 0 {
				rs[i].Action = rule.ActionEstablish
			}
		}
		if set, err = rule.NewSet(rs); err != nil {
			return nil, err
		}
		sched, err := workload.Generate(set, workload.Config{
			Model: workload.ModelConntrack, Events: traceLen, Duration: time.Second,
			Seed: seed, Connections: conns, FloodRatio: floodRatio, Family: in.family,
		})
		if err != nil {
			return nil, err
		}
		for _, ev := range sched.Events {
			raw = append(raw, ev.Header)
		}
	} else {
		raw, err = ruleset.GenerateTrace(set, ruleset.TraceConfig{Size: traceLen, HitRatio: hitRatio, Seed: seed})
		if err != nil {
			return nil, err
		}
	}
	in.rules = set
	if err := in.setTrace(raw); err != nil {
		return nil, err
	}
	if wl == "acl6-frames" {
		in.frames6 = make([][]byte, len(in.hdrs))
		in.noDecode6 = make([]bool, len(in.hdrs))
		for i, h := range in.hdrs {
			h6 := ruleset.Embed6Header(h)
			in.frames6[i] = packet.BuildEthernet6(h6)
			got, err := packet.ParseEthernet6(in.frames6[i])
			if err == nil && got != h6 {
				return nil, fmt.Errorf("IPv6 frame %d decodes to %+v, want %+v", i, got, h6)
			}
			in.noDecode6[i] = err != nil
		}
	}
	in.want = oracle(set, in.hdrs)
	if wl == "fw-conntrack" {
		in.flows()
		if err := in.renewals(); err != nil {
			return nil, err
		}
	}
	if in.pool, err = updatePool(in, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// setTrace sets the headers and their Ethernet/IPv4 frames. The oracle
// judges the header the frame carries: the wire encoding drops the
// ports of protocols without them.
func (in *inputs) setTrace(raw []rule.Header) error {
	in.hdrs = make([]rule.Header, len(raw))
	in.frames = make([][]byte, len(raw))
	for i, h := range raw {
		f := packet.BuildEthernet(packet.BuildIPv4(h))
		hw, err := packet.ParseEthernet(f)
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		in.frames[i], in.hdrs[i] = f, hw
	}
	return nil
}

// oracle computes rule.Set.Match for every header, once per distinct
// header, on the data-path goroutine budget.
func oracle(set *rule.Set, hs []rule.Header) []verdict {
	slot := make(map[rule.Header]int, len(hs))
	var uniq []rule.Header
	for _, h := range hs {
		if _, ok := slot[h]; !ok {
			slot[h] = len(uniq)
			uniq = append(uniq, h)
		}
	}
	res := make([]verdict, len(uniq))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(uniq); i += workers {
				res[i] = ruleVerdict(set.Match(uniq[i]))
			}
		}(w)
	}
	wg.Wait()
	out := make([]verdict, len(hs))
	for i, h := range hs {
		out[i] = res[slot[h]]
	}
	return out
}

// flowKey identifies a connection regardless of direction.
type flowKey struct {
	lo, hi uint64 // endpoints as addr<<16|port, ordered
	proto  uint8
}

func flowOf(h rule.Header) flowKey {
	a := uint64(h.SrcIP)<<16 | uint64(h.SrcPort)
	b := uint64(h.DstIP)<<16 | uint64(h.DstPort)
	if a > b {
		a, b = b, a
	}
	return flowKey{a, b, h.Proto}
}

// flows fills flow and estab: the establishing verdicts seen on each
// flow, in either direction.
func (in *inputs) flows() {
	ids := make(map[flowKey]int32)
	in.flow = make([]int32, len(in.hdrs))
	for i, h := range in.hdrs {
		k := flowOf(h)
		id, ok := ids[k]
		if !ok {
			id = int32(len(in.estab))
			ids[k] = id
			in.estab = append(in.estab, nil)
		}
		in.flow[i] = id
		if v := in.want[i]; v.found && v.action == rule.ActionEstablish && !contains(in.estab[id], v) {
			in.estab[id] = append(in.estab[id], v)
		}
	}
}

// The conntrack schedule is replayed many times in a window. Replayed
// as it is, its one-shot flows (the SYN flood) would come back on every
// pass and, once the flow tables held them, be answered by state or
// cache, leaving fills to slot conflicts. So each lane renews them when
// it wraps around: every renewable packet takes a source port it has
// not carried before, in its frame and its header.
//
// A packet is renewable when it is TCP or UDP and its flow occurs once
// in the schedule. Its new ports come from allowed, the ports no packet
// of the schedule carries in either port field, restricted to the
// source-port interval that holds its own port and that no endpoint of
// a rule matching its other four fields splits. Within that interval
// every rule's source-port test answers alike, so the renewed packet
// keeps its oracle verdict. And since no schedule packet carries the
// new port, the renewed packet shares its flow, in either direction,
// with no packet but renewed copies of itself, so a state entry that
// answers it holds its own verdict.
type renewal struct {
	i    int   // input index
	a, n int32 // the packet's ports are allowed[a : a+n]
}

// sportAt is the offset of the transport source port in a frame
// packet.BuildEthernet(packet.BuildIPv4(h)) makes: an Ethernet header,
// then a minimal IPv4 header.
const sportAt = 14 + 20

// renewals fills allowed and renew from flow, and checks that a
// renewed frame decodes to the renewed header.
func (in *inputs) renewals() error {
	var used [1 << 16]bool
	for _, h := range in.hdrs {
		used[h.SrcPort], used[h.DstPort] = true, true
	}
	in.allowed = nil
	for p := range used {
		if !used[p] {
			in.allowed = append(in.allowed, uint16(p))
		}
	}
	seen := make([]int, len(in.estab))
	for _, f := range in.flow {
		seen[f]++
	}
	var cand []int
	for i, h := range in.hdrs {
		if seen[in.flow[i]] == 1 && (h.Proto == rule.ProtoTCP || h.Proto == rule.ProtoUDP) {
			cand = append(cand, i)
		}
	}
	rules := in.rules.Rules()
	rn := make([]renewal, len(cand))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for x := w; x < len(cand); x += workers {
				i := cand[x]
				lo, hi := portInterval(rules, in.hdrs[i])
				a := sort.Search(len(in.allowed), func(j int) bool { return int(in.allowed[j]) >= lo })
				b := sort.Search(len(in.allowed), func(j int) bool { return int(in.allowed[j]) > hi })
				rn[x] = renewal{i: i, a: int32(a), n: int32(b - a)}
			}
		}(w)
	}
	wg.Wait()
	in.renew = in.renew[:0]
	for _, r := range rn {
		if r.n == 0 {
			continue
		}
		h := in.hdrs[r.i]
		h.SrcPort = in.allowed[r.a]
		f := append([]byte(nil), in.frames[r.i]...)
		binary.BigEndian.PutUint16(f[sportAt:], h.SrcPort)
		if got, err := packet.ParseEthernet(f); err != nil || got != h {
			return fmt.Errorf("renewed frame %d decodes to %+v (%v), want %+v", r.i, got, err, h)
		}
		in.renew = append(in.renew, r)
	}
	return nil
}

// portInterval returns the source-port interval [lo, hi] holding h's
// source port that no source-port endpoint of a rule matching h's other
// four fields splits.
func portInterval(rules []rule.Rule, h rule.Header) (lo, hi int) {
	lo, hi = 0, 0xffff
	port := int(h.SrcPort)
	for k := range rules {
		r := &rules[k]
		q := h
		q.SrcPort = r.SrcPort.Lo
		if !r.Matches(q) {
			continue
		}
		for _, e := range [2]int{int(r.SrcPort.Lo), int(r.SrcPort.Hi) + 1} {
			if e <= port {
				lo = max(lo, e)
			} else {
				hi = min(hi, e-1)
			}
		}
	}
	return lo, hi
}

func contains(vs []verdict, v verdict) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func (in *inputs) undecodable(i int) bool { return in.noDecode6 != nil && in.noDecode6[i] }

// expect is the oracle verdict for input i, or no verdict for a frame
// that does not decode.
func (in *inputs) expect(i int) verdict {
	if in.undecodable(i) {
		return verdict{}
	}
	return in.want[i]
}

// ok reports whether got is a correct verdict for input i: the oracle's,
// or on fw-conntrack a verdict the header's flow state may hold.
func (in *inputs) ok(i int, got repro.Result) bool {
	v := verdictOf(got)
	return v == in.expect(i) || in.estab != nil && contains(in.estab[in.flow[i]], v)
}

// updatePool generates the control lane's rules from the workload's
// family: IDs and priorities above every base rule, so a pool rule never
// beats a base rule, and no pool rule matches a trace header that no
// base rule matches. Lookups running beside the lane therefore keep
// their oracle verdicts.
func updatePool(in *inputs, seed int64) ([]rule.Rule, error) {
	gen, err := ruleset.Generate(ruleset.Config{Family: in.family, Size: poolLen, Seed: seed + 7919})
	if err != nil {
		return nil, err
	}
	maxID, maxPrio := 0, 0
	for _, r := range in.rules.Rules() {
		maxID, maxPrio = max(maxID, r.ID), max(maxPrio, r.Priority)
	}
	var unmatched []rule.Header
	for i, h := range in.hdrs {
		if !in.want[i].found {
			unmatched = append(unmatched, h)
		}
	}
	var pool []rule.Rule
next:
	for _, r := range gen.Rules() {
		for i := range unmatched {
			if r.Matches(unmatched[i]) {
				continue next
			}
		}
		r.ID, r.Priority = maxID+1+len(pool), maxPrio+1+len(pool)
		pool = append(pool, r)
	}
	if len(pool) < 2*livePool {
		return nil, fmt.Errorf("update pool: only %d usable rules", len(pool))
	}
	return pool, nil
}

// digest hashes the generated inputs: ruleset, headers, frames and pool.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, r := range in.rules.Rules() {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for i, x := range in.hdrs {
		fmt.Fprintf(h, "%+v %x\n", x, in.frames[i])
	}
	for _, f := range in.frames6 {
		fmt.Fprintf(h, "%x\n", f)
	}
	for _, r := range in.pool {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lane is one worker's share of the inputs, in order, with the first
// burstLen-1 entries repeated at the end so any burst starting before n
// is contiguous. The worker cycles through it.
type lane struct {
	n      int
	idx    []int
	frames [][]byte
	hdrs   []rule.Header
	// The lane's renewable packets (fw-conntrack), and the passes it
	// has renewed them for.
	allowed []uint16
	rn      []laneRenewal
	pass    int
}

// laneRenewal is a renewal at a position of the lane.
type laneRenewal struct {
	pos  int
	a, n int32
}

// renew gives every renewable packet of the lane the source port of
// its next pass: the pass-th of its ports, counted from one that
// depends on its position, so packets sharing an interval spread over
// it. The frames are shared with inputs.frames.
func (l *lane) renew() {
	l.pass++
	for _, r := range l.rn {
		port := l.allowed[r.a+int32((r.pos+l.pass)%int(r.n))]
		binary.BigEndian.PutUint16(l.frames[r.pos][sportAt:], port)
		l.hdrs[r.pos].SrcPort = port
		if r.pos < burstLen-1 {
			l.hdrs[l.n+r.pos].SrcPort = port
		}
	}
}

// burst is one batch: the frames (or headers) and their input indices.
type burst struct {
	idx    []int
	frames [][]byte
	hdrs   []rule.Header
}

func (l *lane) at(p int) burst {
	return burst{idx: l.idx[p : p+burstLen], frames: l.frames[p : p+burstLen], hdrs: l.hdrs[p : p+burstLen]}
}

func (l *lane) next(p int) int { return (p + burstLen) % l.n }

func newLane(idx []int, frames [][]byte, hdrs []rule.Header) *lane {
	l := &lane{n: len(idx)}
	ext := append(idx, idx[:burstLen-1]...)
	l.idx = ext
	l.frames = make([][]byte, len(ext))
	l.hdrs = make([]rule.Header, len(ext))
	for j, i := range ext {
		l.frames[j], l.hdrs[j] = frames[i], hdrs[i]
	}
	return l
}

// splitLanes deals the inputs to n lanes by flow, so every packet of a
// flow, in both directions, stays in order on one worker.
func splitLanes(in *inputs, frames [][]byte, n int) []*lane {
	idx := make([][]int, n)
	for i, h := range in.hdrs {
		k := flowOf(h)
		x := (k.lo ^ k.hi*0x9e3779b97f4a7c15 ^ uint64(k.proto)) * 0xbf58476d1ce4e5b9
		w := int((x >> 33) % uint64(n))
		idx[w] = append(idx[w], i)
	}
	ls := make([]*lane, n)
	pos := make([][2]int, len(in.hdrs)) // lane and position of each input
	for w := range ls {
		ls[w] = newLane(idx[w], frames, in.hdrs)
		ls[w].allowed = in.allowed
		for p, i := range idx[w] {
			pos[i] = [2]int{w, p}
		}
	}
	for _, r := range in.renew {
		at := pos[r.i]
		ls[at[0]].rn = append(ls[at[0]].rn, laneRenewal{pos: at[1], a: r.a, n: r.n})
	}
	return ls
}
