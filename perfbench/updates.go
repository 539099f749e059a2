package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	repro "repro"
	"repro/internal/rule"
	"repro/internal/ruleset"
)

// In-process control-lane runs take laneWarm untimed steps, letting the
// engine's tables grow to their working size, then updateSteps timed
// ones.
const (
	laneWarm    = 500
	updateSteps = 20000
)

// target is a control plane the lane drives: an in-process engine or a
// classifierd connection. canon renders a rule the way snapshot does.
type target struct {
	insert   func(rule.Rule) error
	delete   func(id int) error
	replace  func([]rule.Rule) error
	snapshot func() ([]string, error)
	canon    func(rule.Rule) string
}

func canon4(r rule.Rule) string {
	r.SrcIP, r.DstIP = r.SrcIP.Canonical(), r.DstIP.Canonical()
	return fmt.Sprintf("%+v", r)
}

func canon6(r rule.Rule6) string {
	r.SrcIP, r.DstIP = r.SrcIP.Canonical(), r.DstIP.Canonical()
	return fmt.Sprintf("%+v", r)
}

// engineTarget drives an IPv4 engine composition in-process.
func engineTarget(e repro.Engine) target {
	return target{
		insert: func(r rule.Rule) error { _, err := e.Insert(r); return err },
		delete: func(id int) error { _, err := e.Delete(id); return err },
		replace: func(rs []rule.Rule) error {
			_, err := e.Replace(rs)
			return err
		},
		snapshot: func() ([]string, error) { return canonAll(e.Snapshot(), canon4), nil },
		canon:    canon4,
	}
}

// engine6Target drives the IPv6 engine with the embedded pool rules.
func engine6Target(e *repro.Classifier6) target {
	return target{
		insert: func(r rule.Rule) error { _, err := e.Insert(ruleset.Embed6Rule(r)); return err },
		delete: func(id int) error { _, err := e.Delete(id); return err },
		replace: func(rs []rule.Rule) error {
			r6 := make([]rule.Rule6, len(rs))
			for i := range rs {
				r6[i] = ruleset.Embed6Rule(rs[i])
			}
			_, err := e.Replace(r6)
			return err
		},
		snapshot: func() ([]string, error) { return canonAll(e.Snapshot(), canon6), nil },
		canon:    func(r rule.Rule) string { return canon6(ruleset.Embed6Rule(r)) },
	}
}

func canonAll[R any](rs []R, f func(R) string) []string {
	out := make([]string, len(rs))
	for i := range rs {
		out[i] = f(rs[i])
	}
	sort.Strings(out)
	return out
}

// The control lane first inserts livePool pool rules (the fill), then
// repeats one update step: insert the next pool rule and delete the
// oldest live one. laneStep returns step k's two rules.
func laneStep(k int, pool []rule.Rule) (ins, del rule.Rule) {
	return pool[(livePool+k)%len(pool)], pool[k%len(pool)]
}

// liveAfter returns the pool rules live after the fill and n steps.
func liveAfter(n int, pool []rule.Rule) []rule.Rule {
	out := make([]rule.Rule, livePool)
	for j := range out {
		out[j] = pool[(n+j)%len(pool)]
	}
	return out
}

// laneResult is one control-lane run.
type laneResult struct {
	ins, del []float64 // per-operation service time, µs
	step     []float64 // per-step service time (insert plus delete), µs
	steps    int       // steps applied, warm-up included
}

// ops is the number of operations applied, fill included.
func (l laneResult) ops() int { return livePool + 2*l.steps }

// laneRunner drives the control lane on one target from one goroutine.
// With cpu set an operation is timed on the thread's CPU clock (for
// targets in this process), otherwise on the wall clock.
type laneRunner struct {
	t    target
	pool []rule.Rule
	cpu  bool
	res  laneResult
}

// fill inserts the first livePool pool rules.
func (l *laneRunner) fill() error {
	for _, r := range l.pool[:livePool] {
		if err := l.t.insert(r); err != nil {
			return fmt.Errorf("lane fill: %w", err)
		}
	}
	return nil
}

// run applies steps in order, each after the last has returned, until
// stop reports true before a step; steps are recorded unless warm. With
// pace > 0 a step waits until pace after the previous one started, so
// the lane offers at most one step per pace.
func (l *laneRunner) run(pace time.Duration, warm bool, stop func() bool) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	next := time.Now()
	for !stop() {
		if d := time.Until(next); pace > 0 && d > 0 {
			time.Sleep(d)
		}
		next = time.Now().Add(pace)
		ins, del := laneStep(l.res.steps, l.pool)
		a, err := l.timed(func() error { return l.t.insert(ins) })
		if err != nil {
			return fmt.Errorf("lane step %d insert: %w", l.res.steps, err)
		}
		b, err := l.timed(func() error { return l.t.delete(del.ID) })
		if err != nil {
			return fmt.Errorf("lane step %d delete: %w", l.res.steps, err)
		}
		l.res.steps++
		if !warm {
			l.res.ins = append(l.res.ins, a)
			l.res.del = append(l.res.del, b)
			l.res.step = append(l.res.step, a+b)
		}
	}
	return nil
}

func (l *laneRunner) timed(op func() error) (float64, error) {
	if !l.cpu {
		t0 := time.Now()
		err := op()
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	c0 := threadCPU()
	err := op()
	return float64(threadCPU()-c0) / 1e3, err
}

// runSteps fills the lane and runs laneWarm untimed steps, then
// updateSteps timed ones.
func runSteps(t target, pool []rule.Rule) (laneResult, error) {
	l := &laneRunner{t: t, pool: pool, cpu: true}
	if err := l.fill(); err != nil {
		return l.res, err
	}
	if err := l.run(0, true, func() bool { return l.res.steps >= laneWarm }); err != nil {
		return l.res, err
	}
	err := l.run(0, false, func() bool { return l.res.steps >= laneWarm+updateSteps })
	return l.res, err
}

// checkRules compares a snapshot with the expected ruleset.
func checkRules(r *report, what string, t target, want []rule.Rule) {
	got, err := t.snapshot()
	if err != nil {
		r.count(1, 1)
		r.problem("%s: snapshot: %v", what, err)
		return
	}
	exp := make([]string, len(want))
	for i := range want {
		exp[i] = t.canon(want[i])
	}
	sort.Strings(exp)
	if len(got) != len(exp) {
		r.count(1, 1)
		r.problem("%s: snapshot holds %d rules, want %d", what, len(got), len(exp))
		return
	}
	for i := range got {
		if got[i] != exp[i] {
			r.count(1, 1)
			r.problem("%s: snapshot differs: got %s, want %s", what, got[i], exp[i])
			return
		}
	}
	r.count(1, 0)
}

// swapBack checks the ruleset the lane left after n steps, swaps
// the whole base ruleset back in with one Replace on an in-process
// engine, checks again and returns the process CPU time the Replace
// took.
func swapBack(r *report, t target, in *inputs, n int) time.Duration {
	base := in.rules.Rules()
	checkRules(r, "after the control lane", t, append(append([]rule.Rule(nil), base...), liveAfter(n, in.pool)...))
	runtime.GC() // the snapshot's garbage should not land in the swap's peak memory
	c0 := processCPU()
	err := t.replace(base)
	d := processCPU() - c0
	if err != nil {
		r.count(1, 1)
		r.problem("swap: %v", err)
		return d
	}
	r.count(1, 0)
	checkRules(r, "after the swap", t, base)
	return d
}
