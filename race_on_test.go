//go:build race

package retro

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation allocates on its own: the allocation
// guard is skipped there and enforced by the non-race runs.
const raceEnabled = true
