//go:build !linux

package main

import "time"

func preciseTimers() {}

func sleepPrecise(d time.Duration) { time.Sleep(d) }
