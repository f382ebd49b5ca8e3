//go:build race

package persist

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given on purpose, so allocation counts mean nothing.
const raceEnabled = true
