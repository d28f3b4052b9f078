//go:build race

package testutil

// RaceEnabled reports whether the binary was built with the race detector.
// The detector changes allocation counts, so allocation guards skip under it.
const RaceEnabled = true
