//go:build race

package lockmgr

// raceEnabled reports that the race detector is on. NewOwner then checks
// every parked owner it hands out (Owner.parkedErr).
const raceEnabled = true
