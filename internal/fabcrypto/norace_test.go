//go:build !race

package fabcrypto

const raceEnabled = false
