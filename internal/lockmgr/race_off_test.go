//go:build !race

package lockmgr

const raceEnabled = false
