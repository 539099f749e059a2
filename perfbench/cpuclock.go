package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Work done inside one process is timed on CPU clocks: the reference
// machine is a 2-vCPU VM whose host steals a varying share of its wall
// time (often a tenth or more), and CPU clocks leave stolen time out.
// Throughput, the ctl round trips (which span two processes and the
// loopback interface) and the trace spans are timed on the wall clock.
//
// CPU clocks do not remove the host's other interference. On the
// reference VM, DRAM latency, taken as random reads over a 32 MiB
// table, moves by a quarter or more both within seconds and between
// phases minutes long, and the lookups, whose tables do not fit in
// cache, move with it by up to a third. They move by less than the
// latency does, so dividing by such a calibration would not steady
// them. Nor would reading the window's quietest half-seconds instead
// of its median: over 20 s stretches of one long run they varied more
// than the median did.

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU reads the calling OS thread's CPU clock in ns; the caller
// must be locked to its thread (runtime.LockOSThread).
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// processCPU reads the user plus system CPU time of this process, the
// Go runtime's own threads (GC) included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
