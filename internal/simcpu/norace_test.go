//go:build !race

package simcpu

const raceEnabled = false
