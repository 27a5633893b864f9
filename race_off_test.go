//go:build !race

package retro

const raceEnabled = false
