//go:build !linux

package main

import "time"

// Without Linux's CPU-time clocks the benchmark falls back to the
// monotonic wall clock, so its times include any wait for a CPU.
var clockStart = time.Now()

func processCPU() time.Duration { return time.Since(clockStart) }

func threadCPU() time.Duration { return time.Since(clockStart) }
