//go:build race

package figures

// raceEnabled reduces the figures' inputs under the race detector,
// which slows the pipeline about tenfold.
const raceEnabled = true
