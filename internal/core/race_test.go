//go:build race

package core

// raceEnabled: the race detector's instrumentation allocates on its own, so
// exact allocation budgets mean what they say only without it.
const raceEnabled = true
