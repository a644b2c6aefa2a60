package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time, user plus system, that every thread of
// the process has run so far. Time the hypervisor gave to other guests
// is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
