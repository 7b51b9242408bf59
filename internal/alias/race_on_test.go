//go:build race

package alias_test

// raceEnabled shrinks the quadratic differential sweeps under the race
// detector, which slows them about tenfold.
const raceEnabled = true
