// Command perfbench is the repository's benchmark. It measures the
// classifier from outside: it generates each workload's inputs from the
// seed, drives them through the layers' public functions, checks every
// verdict against the rule.Set.Match oracle, and prints one JSON result
// line last. Any wrong verdict, failed operation or failed check makes
// the result incorrect and the exit status 1; an input-hash mismatch at
// the pinned seed stops the run with status 1 before it measures
// anything.
//
// Run it through run.sh from the repository root, which builds this
// command and classifierd first:
//
//	bash perfbench/run.sh --workload acl-frames --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics of a traced run and writes its spans under
// .bench_build/trace. Every output is stamped with the machine.
//
// All load is closed loop: a data-path worker takes its next burst as
// soon as the last returns, and a ctl client waits for each reply. Data
// paths use two workers (the reference machine has two cores). Service
// times inside one process are taken on CPU clocks, because the
// reference machine is a VM whose host steals a varying share of its
// wall time; throughput is counted on the wall clock. See cpuclock.go.
//
// The workloads, and why each is here:
//
//   - acl-frames: the plain decomposition engine (repro.New(WithRules))
//     over a 10K-rule ACL set; a 64K-header trace (hit ratio 0.9) as
//     header-only Ethernet/IPv4 frames through LookupBytesBatch in bursts
//     of 64 on two workers. Each frame passes through decode and the five
//     field engines at about 1.2 ULI probes per lookup, and no cache,
//     state or ctl code runs, so it is the "should not move" workload for
//     all of those.
//   - fw-conntrack: WithFlowCache(65536) and WithFlowState(65536, TTL
//     longer than the run) over a 10K-rule FW set with every other
//     rule's action rewritten to allow-established; a conntrack schedule
//     of 4096 live connections plus 10% one-shot SYN-flood flows as
//     frames in bursts of 64 on two workers, each flow kept in order on
//     one worker. State answers most packets and the cache most of the
//     rest. The schedule is replayed many times in a window, and each
//     replay gives the one-shot flows new source ports (see renewal in
//     inputs.go), so the flood keeps both tables filling and evicting,
//     the fill path that allocates. FW rules make the rare core miss
//     ULI-heavy.
//   - acl6-frames: repro.New6() (split-64) loaded with the embedded
//     acl-frames rules; the acl-frames trace embedded as Ethernet/IPv6
//     frames through Classifier6.LookupBytesBatch in bursts of 64 on two
//     workers. It is the only workload on lpm.Split6, Classifier6 and the
//     IPv6 decoders.
//
// There is no workload over the ctl protocol. Round trips through a
// classifierd child cross two processes and the loopback interface, and
// on the reference VM their medians spread 0.16 to 0.28 between runs,
// beyond any bound the benchmark may set. The ctl layer is measured in
// every traced run instead, by a one-second probe against a classifierd
// child holding the workload's IPv4 rules: closed-loop 64-header
// MLOOKUPs on one connection beside paced INSERT/DELETE steps on a
// second. Its traffic crosses the loopback interface, not a link.
//
// No workload shards an engine.
//
// Every workload reports every end-to-end metric (see endToEnd). The
// update figures come from the control lane's update steps run
// in-process on the workload's engine after the lookup window, and
// swap_s from one Replace of the whole base ruleset. Tail
// percentiles, with their sample counts, are in the lines printed ahead
// of the result rather than in it: on the reference VM they move with
// the host's load more than with the program.
//
// The traced run drives the same inputs layer by layer in the engine's
// order (decode, state, cache, core on misses, fills) with a span around
// each call, keeps the spans in memory and writes them at the end.
// Layers a workload's engine does not have are timed on standalone
// instances fed the workload's headers. The traced run fails when the
// median layer sum per batch is not within layerTolerance of the median
// untraced batch, or when its verdicts differ from the composed
// engine's.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

var workloads = []string{"acl-frames", "fw-conntrack", "acl6-frames"}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	daemon   string // classifierd binary
	traceDir string
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: acl-frames, fw-conntrack or acl6-frames")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the default seed's inputs are pinned")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/classifierd", "classifierd binary")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for span files")
	flag.Parse()
	o.window, o.trace = time.Duration(seconds)*time.Second, trace == 1
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloads)
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, seconds, trace)
	fmt.Println(machineStamp())

	in, err := generate(o.workload, o.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: inputs: %v\n", err)
		os.Exit(1)
	}
	sum := in.digest()
	switch pinned := pinnedInputs[o.workload]; {
	case o.seed != defaultSeed:
		fmt.Printf("inputs: sha256=%s (seed %d is not pinned)\n", sum, o.seed)
	case sum != pinned:
		fmt.Fprintf(os.Stderr, "perfbench: %s inputs at seed %d hash to %s, pinned %s: the generators changed\n",
			o.workload, o.seed, sum, pinned)
		os.Exit(1)
	default:
		fmt.Printf("inputs: sha256=%s (pinned)\n", sum)
	}

	r := newReport()
	if err := runFrames(o, in, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, correct := r.result(defs)
	fmt.Print(r.summaryLines())
	fmt.Println(line)
	if !correct {
		os.Exit(1)
	}
}
