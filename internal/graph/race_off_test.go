//go:build !race

package graph

// raceEnabled mirrors the race detector's presence: allocation-count
// tests skip under it, since instrumentation allocates.
const raceEnabled = false
