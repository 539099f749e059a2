package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerTolerance bounds how far the traced layer sum per batch may land
// from the untraced batch time, as a share of the untraced time.
const layerTolerance = 0.25

// Span layers. A batch's root span covers the whole batch; each layer
// span is one call into that layer's public functions for the batch.
const (
	spanRoot uint8 = iota
	spanDecode
	spanStateProbe
	spanCacheProbe
	spanCore
	spanCacheFill
	spanStateFill
	numSpanLayers
)

var spanNames = [numSpanLayers]string{
	"batch", "packet.decode", "fwstate.probe", "flowcache.probe", "core.lookup", "flowcache.fill", "fwstate.fill",
}

// span is one timed interval, kept in memory until the run ends.
type span struct {
	batch  int32 // spans of one batch share this identifier
	parent int32 // index of the parent span in the same log, -1 for a root
	layer  uint8
	items  int32 // headers the call handled
	start  int64 // ns since the trace epoch
	end    int64
}

var epoch = time.Now()

// clock reads the monotonic clock in ns since the trace epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// spanLog is one worker's in-memory span log.
type spanLog struct {
	spans   []span
	batches int32
}

// begin opens a root span and returns its index.
func (l *spanLog) begin() int32 {
	l.batches++
	l.spans = append(l.spans, span{batch: l.batches, parent: -1, layer: spanRoot, start: clock()})
	return int32(len(l.spans) - 1)
}

// add records a finished child span of root.
func (l *spanLog) add(root int32, layer uint8, start, end int64, items int) {
	l.spans = append(l.spans, span{batch: l.batches, parent: root, layer: layer, items: int32(items), start: start, end: end})
}

// finish closes the root span with the number of headers in the batch.
func (l *spanLog) finish(root int32, items int) {
	s := &l.spans[root]
	s.end, s.items = clock(), int32(items)
}

// layerSums is the arithmetic of one span log: self time and items per
// layer, and per batch the root's duration and the part of it its
// layers account for. A span's self time is its duration minus that of
// its children.
type layerSums struct {
	self    [numSpanLayers]int64
	items   [numSpanLayers]int64
	batchUs []float64 // root duration of each batch
	layerUs []float64 // the same minus the root's own (unattributed) time
}

func sumLayers(spans []span) layerSums {
	var s layerSums
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	for i, sp := range spans {
		s.self[sp.layer] += self[i]
		s.items[sp.layer] += int64(sp.items)
		if sp.parent < 0 {
			d := sp.end - sp.start
			s.batchUs = append(s.batchUs, float64(d)/1e3)
			s.layerUs = append(s.layerUs, float64(d-self[i])/1e3)
		}
	}
	return s
}

func (s *layerSums) merge(o layerSums) {
	for l := range s.self {
		s.self[l] += o.self[l]
		s.items[l] += o.items[l]
	}
	s.batchUs = append(s.batchUs, o.batchUs...)
	s.layerUs = append(s.layerUs, o.layerUs...)
}

// perItemNs is a layer's self time per item it handled; ok is false
// when the layer handled nothing.
func (s layerSums) perItemNs(layer uint8) (float64, bool) {
	if s.items[layer] == 0 {
		return 0, false
	}
	return float64(s.self[layer]) / float64(s.items[layer]), true
}

// traceFracs relates a traced run to the untraced one, all three
// figures being median batch times: the tracing overhead, the share of
// the untraced batch time no layer accounts for, and whether the layer
// sum lands within layerTolerance of the untraced time.
func traceFracs(untracedUs, tracedUs, layerUs float64) (overhead, unattributed float64, within bool) {
	if untracedUs <= 0 {
		return 0, 0, false
	}
	overhead = (tracedUs - untracedUs) / untracedUs
	unattributed = (untracedUs - layerUs) / untracedUs
	return overhead, unattributed, unattributed <= layerTolerance && unattributed >= -layerTolerance
}

// writeSpans writes the span logs as tab-separated lines under dir,
// headed by the machine stamp.
func writeSpans(dir, name, stamp string, logs []*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# worker\tbatch\tspan\tparent\tlayer\tstart_ns\tend_ns\titems\n", stamp)
	for wk, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", wk, s.batch, i, s.parent, spanNames[s.layer], s.start, s.end, s.items)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
