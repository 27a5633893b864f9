//go:build race

package embed

// raceEnabled reports that this test binary runs under the race
// detector. Allocation-count assertions are skipped there (the detector
// may instrument pool internals), and so is the recall guard's 10k x 300
// world, whose index builds would add minutes; the non-race CI jobs
// enforce both.
const raceEnabled = true
