//go:build !race

package server

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
