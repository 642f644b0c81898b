//go:build !race

package multichoice

const raceEnabled = false
