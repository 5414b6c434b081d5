//go:build race

package txn

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is put back, so tests that count allocations on
// pooled paths skip themselves.
const raceEnabled = true
