//go:build !unix

package journal

// lockFile is a no-op where flock is unavailable. The lease layer's
// expiry protocol still prevents steady-state double-appending; only
// the same-machine race window during a steal loses its second guard,
// and racing lease thieves lose the sidecar lock that serializes them
// (the verifying re-read remains).
func lockFile(f interface{ Fd() uintptr }) error { return nil }
