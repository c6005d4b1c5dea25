//go:build race

package racedetect

// Enabled reports whether the binary was built with -race.
const Enabled = true
