//go:build race

package ssa_test

// raceEnabled shrinks the differential sweep under the race detector,
// which slows the compiler about tenfold.
const raceEnabled = true
