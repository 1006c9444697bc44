//go:build race

package live_test

// raceEnabled reports whether the race detector is built in. It slows every
// synchronization by an order of magnitude, so a bound on how often a call
// outlasts its observed widen tick holds only without it.
const raceEnabled = true
