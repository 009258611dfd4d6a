//go:build !race

package eval

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random.
const raceEnabled = false
