package main

import (
	"syscall"
	"time"
)

// preciseTimers drops the calling thread's timer slack from the default
// 50 µs to 1 ns, so that sleepPrecise wakes close to its deadline. The
// caller must hold its OS thread (runtime.LockOSThread).
func preciseTimers() {
	const prSetTimerSlack = 29
	// Best effort: without it the sleeps are merely less precise, and
	// the generator's lateness check still guards the measurement.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepPrecise sleeps in the kernel rather than on a runtime timer,
// whose wake-ups on an idle process can trail by up to a millisecond.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep ends early; paceUntil spins the rest
}
