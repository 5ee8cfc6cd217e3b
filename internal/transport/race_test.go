//go:build race

package transport

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts are not pinned there.
const raceEnabled = true
