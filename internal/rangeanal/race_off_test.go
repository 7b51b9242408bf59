//go:build !race

package rangeanal

const raceEnabled = false
