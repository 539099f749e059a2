package repro

import (
	"sync"

	"repro/internal/core"
	"repro/internal/lpm"
	"repro/internal/packet"
	"repro/internal/rule"
)

// This file implements the raw-packet ingestion path of every Engine
// composition: wire bytes go in, verdicts come out, and the hot paths
// stay off the heap. The decoders write into caller-provided headers
// (internal/packet), the batch paths reuse pooled frame-slab decoders
// and result slabs, and the classifier core classifies into
// caller-owned result memory (LookupBatchInto), so a steady-state
// LookupBytes/LookupBytesBatch performs zero allocations per frame on
// the decomposition backend.

// rawBurstPool recycles the frame-slab decoders of lookupFrames.
var rawBurstPool = sync.Pool{New: func() any { return new(packet.Burst) }}

// v4RawScratch is the pooled working set of Classifier.LookupBytesBatch:
// the burst decoder plus the key-typed header slab and result slab that
// feed the core's caller-owned-memory batch lookup.
type v4RawScratch struct {
	burst packet.Burst
	hdrs  []core.Header[lpm.V4]
	res   []core.Result
}

var v4RawPool = sync.Pool{New: func() any { return new(v4RawScratch) }}

// v6RawScratch is the IPv6 counterpart for Classifier6.LookupBytesBatch.
type v6RawScratch struct {
	burst packet.Burst
	hdrs  []core.Header[lpm.V6]
	res   []core.Result
}

var v6RawPool = sync.Pool{New: func() any { return new(v6RawScratch) }}

// LookupBytes implements Engine: it decodes the IPv4-over-Ethernet frame
// in place and classifies the 5-tuple against the current RCU snapshot.
//
//repro:noalloc
func (c *Classifier) LookupBytes(frame []byte) (Result, error) {
	var h rule.Header
	if err := packet.DecodeEthernet(frame, &h); err != nil {
		return Result{}, err
	}
	res, _ := c.inner.Lookup(core.V4Header(h))
	return res, nil
}

// LookupBytesBatch implements Engine: the frame slab is decoded by a
// pooled burst decoder, the decoded headers are classified into a pooled
// result slab against one consistent snapshot, and the verdicts are
// scattered back to the frames' positions. Undecodable frames yield the
// zero Result; the return value is the number of frames decoded.
//
//repro:noalloc
func (c *Classifier) LookupBytesBatch(frames [][]byte, out []Result) int {
	sc := v4RawPool.Get().(*v4RawScratch)
	raw, idx := sc.burst.DecodeV4(frames)
	for i := range frames {
		out[i] = Result{}
	}
	n := len(raw)
	if n > 0 {
		hdrs := sc.hdrs[:0]
		res := sc.res[:0]
		for _, h := range raw {
			hdrs = append(hdrs, core.V4Header(h))
			res = append(res, core.Result{})
		}
		sc.hdrs, sc.res = hdrs, res
		c.inner.LookupBatchInto(hdrs, res)
		for j, r := range res {
			out[idx[j]] = r
		}
	}
	v4RawPool.Put(sc)
	return n
}

// LookupBytes implements Engine for the Table I baselines: decode in
// place, then one snapshot lookup. The decode never allocates; whether
// the lookup does depends on the baseline algorithm.
func (e *baselineEngine) LookupBytes(frame []byte) (Result, error) {
	var h rule.Header
	if err := packet.DecodeEthernet(frame, &h); err != nil {
		return Result{}, err
	}
	res, _ := e.Lookup(h)
	return res, nil
}

// LookupBytesBatch implements Engine: pooled burst decode, then one
// batched snapshot lookup into a pooled result slab, scattered back by
// frame index.
func (e *baselineEngine) LookupBytesBatch(frames [][]byte, out []Result) int {
	return lookupFrames(frames, out, func(hs []Header, idx []int, out []Result) {
		scatterBatch(e, hs, idx, out)
	})
}

// resultSlab is scatterBatch's pooled result slab.
type resultSlab struct{ res []Result }

var resultPool = sync.Pool{New: func() any { return new(resultSlab) }}

// scatterBatch classifies hs through eng's allocation-free batch path
// into a pooled result slab and writes the verdict of hs[j] to
// out[idx[j]].
//
//repro:noalloc
func scatterBatch(eng Engine, hs []rule.Header, idx []int, out []Result) {
	sc := resultPool.Get().(*resultSlab)
	res := sc.res[:0]
	for range hs {
		res = append(res, Result{})
	}
	eng.LookupBatchInto(hs, res)
	for j, r := range res {
		out[idx[j]] = r
	}
	sc.res = res
	resultPool.Put(sc)
}

// lookupFrames is the raw batch path of the engines that classify
// decoded rule.Headers: a pooled burst decoder fills the headers, and
// classify writes the verdict of each decoded header at its frame
// index. Undecodable frames yield the zero Result; the return value is
// the number of frames decoded.
//
//repro:noalloc
func lookupFrames(frames [][]byte, out []Result, classify func(hs []rule.Header, idx []int, out []Result)) int {
	b := rawBurstPool.Get().(*packet.Burst)
	hs, idx := b.DecodeV4(frames)
	for i := range frames {
		out[i] = Result{}
	}
	if len(hs) > 0 {
		classify(hs, idx, out)
	}
	n := len(hs)
	rawBurstPool.Put(b)
	return n
}

// LookupBytes classifies a raw IPv6-over-Ethernet frame: the in-place
// decoder walks the base header and any leading hop-by-hop, routing or
// destination-options extension headers to the transport ports, then
// the 128-bit decomposition (two 64-bit LPM probes plus the combination
// table under LPMSplit64) classifies the 6-tuple.
//
//repro:noalloc
func (c *Classifier6) LookupBytes(frame []byte) (Result, error) {
	var h rule.Header6
	if err := packet.DecodeEthernet6(frame, &h); err != nil {
		return Result{}, err
	}
	res, _ := c.inner.Lookup(core.V6Header(h))
	return res, nil
}

// LookupBytesBatch classifies an IPv6 frame slab against one consistent
// snapshot, with the same contract as the IPv4 engines: zero Result for
// undecodable frames, decoded count returned, out at least len(frames).
//
//repro:noalloc
func (c *Classifier6) LookupBytesBatch(frames [][]byte, out []Result) int {
	sc := v6RawPool.Get().(*v6RawScratch)
	raw, idx := sc.burst.DecodeV6(frames)
	for i := range frames {
		out[i] = Result{}
	}
	n := len(raw)
	if n > 0 {
		hdrs := sc.hdrs[:0]
		res := sc.res[:0]
		for _, h := range raw {
			hdrs = append(hdrs, core.V6Header(h))
			res = append(res, core.Result{})
		}
		sc.hdrs, sc.res = hdrs, res
		c.inner.LookupBatchInto(hdrs, res)
		for j, r := range res {
			out[idx[j]] = r
		}
	}
	v6RawPool.Put(sc)
	return n
}
