//go:build race

package ir_test

// raceEnabled shrinks the printer sweep under the race detector,
// which slows it about tenfold.
const raceEnabled = true
