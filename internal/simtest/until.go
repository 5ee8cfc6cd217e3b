// Package simtest holds what the module's tests share for waiting:
// Until, a bounded wait on a condition that runs the same in a plain
// test and inside a testing/synctest bubble, and, in a second file that
// builds only with GOEXPERIMENT=synctest (go1.24), Run, which runs a
// test in a bubble's virtual time. A plain build, vet or test of the
// module sees Until alone.
package simtest

import "time"

// poll is the pause between two checks of an Until condition. It is a
// sleep, never a spin: inside a bubble virtual time moves only while
// every goroutine is blocked, so a wait that spins never reaches its
// deadline.
const poll = 2 * time.Millisecond

// Until reports whether cond holds within the given time. It checks
// cond at once, then once every poll, and a last time after the
// deadline has passed, so a condition that turns true at the deadline
// itself is still seen. In a bubble its sleeps advance virtual time.
func Until(within time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(within)
	for !time.Now().After(deadline) {
		if cond() {
			return true
		}
		time.Sleep(poll)
	}
	return cond()
}
