//go:build !race

package peer

const raceEnabled = false
