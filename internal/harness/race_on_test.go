//go:build race

package harness

// raceEnabled shrinks the frontend sweeps under the race detector,
// which slows the compiler about tenfold.
const raceEnabled = true
