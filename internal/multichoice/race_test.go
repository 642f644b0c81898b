//go:build race

package multichoice

// raceEnabled reports a -race build, whose instrumentation allocates and
// whose sync.Pool drops items at random, so allocation counts mean nothing.
const raceEnabled = true
