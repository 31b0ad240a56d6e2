//go:build race

package kernels

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = true
