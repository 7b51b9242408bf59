//go:build !race

package alias_test

const raceEnabled = false
