//go:build !linux

package main

import "time"

// processCPU is not measured on systems other than Linux: it reads 0,
// and so do the *_cpu_us metrics.
func processCPU() time.Duration { return 0 }
