//go:build !race

// Package racedetect tells tests whether the race detector is on. The
// race runtime drops sync.Pool items at random on purpose, so a test that
// bounds the allocations of a pool-backed path cannot hold under -race.
package racedetect

// Enabled reports whether the binary was built with -race.
const Enabled = false
