package main

import (
	"runtime"
	"sync"
	"time"
)

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	lat     []float64     // service time of each batch in the window, µs
	frames  int           // frames (or headers) of the batches in the window
	elapsed time.Duration // wall time from the window's start to the last batch's end
	checked int           // verdicts checked, warm-up included
	wrong   int           // wrong verdicts among them
}

// mpps is the throughput the window achieved, in millions per second.
func (s loopStats) mpps() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.frames) / s.elapsed.Seconds() / 1e6
}

// A meter classifies one batch and returns its service time in µs.
type meter func(w int, b burst) float64

// onCPU times classify on the calling thread's CPU clock.
func onCPU(classify func(w int, b burst)) meter {
	return func(w int, b burst) float64 {
		c0 := threadCPU()
		classify(w, b)
		return float64(threadCPU()-c0) / 1e3
	}
}

// onWall times classify on the wall clock.
func onWall(classify func(w int, b burst)) meter {
	return func(w int, b burst) float64 {
		t0 := time.Now()
		classify(w, b)
		return float64(time.Since(t0).Nanoseconds()) / 1e3
	}
}

// closedLoop runs one goroutine per lane, each locked to its thread.
// Each takes its next batch as soon as the last returns: first for warm
// (unrecorded), then for window. measure classifies and times a batch;
// check runs after it and returns the number of wrong verdicts. When a
// lane wraps around, its one-shot flows are renewed before the next
// pass.
func closedLoop(ls []*lane, warm, window time.Duration, measure meter, check func(w int, b burst) int) loopStats {
	type part struct {
		lat                  []float64
		frames, checked, bad int
		last                 time.Time
	}
	parts := make([]part, len(ls))
	from := time.Now().Add(warm)
	end := from.Add(window)
	var wg sync.WaitGroup
	for w := range ls {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			pt := &parts[w]
			pt.lat = make([]float64, 0, 1<<16)
			l, p := ls[w], 0
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				b, np := l.at(p), l.next(p)
				us := measure(w, b)
				pt.bad += check(w, b)
				pt.checked += len(b.idx)
				if !now.Before(from) {
					pt.lat = append(pt.lat, us)
					pt.frames += len(b.idx)
					pt.last = time.Now()
				}
				if np < p {
					l.renew()
				}
				p = np
			}
		}(w)
	}
	wg.Wait()
	var out loopStats
	for _, pt := range parts {
		out.lat = append(out.lat, pt.lat...)
		out.frames += pt.frames
		if d := pt.last.Sub(from); pt.frames > 0 && d > out.elapsed {
			out.elapsed = d
		}
		out.checked += pt.checked
		out.wrong += pt.bad
	}
	return out
}
