//go:build race

package peer

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// what is put back, so allocation counts are not pinned there.
const raceEnabled = true
