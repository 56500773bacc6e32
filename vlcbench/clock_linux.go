package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark times work in CPU time, not wall time. On a shared host
// the hypervisor hands this machine's CPUs to other guests for
// milliseconds at a time; that stolen time lands in wall-clock readings
// (on a 2-vCPU Xeon VM it spread ten runs' medians by 30 %) but not in a
// thread's CPU time.

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has used. The
// caller pins its goroutine (runtime.LockOSThread) so that the readings
// are its own.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// clock_gettime never blocks, so the raw call is safe.
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return wallClock()
	}
	return time.Duration(ts.Nano())
}

// processCPU returns the user and system CPU time of all the process's
// threads: the workers, the garbage collector and the scheduler.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return wallClock()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
