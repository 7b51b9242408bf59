//go:build race

package rangeanal

// raceEnabled shrinks the differential sweep under the race detector,
// which slows the solvers about tenfold.
const raceEnabled = true
