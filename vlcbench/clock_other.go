//go:build !linux

package main

import "time"

// Elsewhere the benchmark falls back to wall time (see clock_linux.go).

func threadCPU() time.Duration  { return wallClock() }
func processCPU() time.Duration { return wallClock() }
