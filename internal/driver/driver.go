// Package driver holds the durability plumbing shared by the
// command-line drivers: the interrupt-aware run context, the on-disk
// state directory layout (checkpoint journal + artifact store), and
// the conventional exit status for an interrupted-but-resumable run.
//
// Layout of a -state directory:
//
//	<dir>/checkpoint.wal   append-only completion journal
//
// Layout of a -persist-cache directory:
//
//	<dir>/<key>.art        one content-addressed artifact per solve
//	<dir>/quarantine/      records that failed validation at open
package driver

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/harness"
	"repro/internal/persist"
	"repro/internal/persist/journal"
	"repro/internal/persist/remote"
)

// ExitInterrupted is the exit status of a run cut short by SIGINT or
// SIGTERM after checkpointing its progress: 128+SIGINT, the shell
// convention, so wrappers distinguish "rerun with -resume" from
// genuine failure.
const ExitInterrupted = 130

var (
	sigMu     sync.Mutex
	sigCtx    context.Context
	sigCancel context.CancelFunc
)

// SignalContext returns a context canceled by SIGINT or SIGTERM. The
// first signal starts a graceful drain: the context is canceled,
// in-flight work finishes and is journaled, the process exits on its
// own. A second signal is the operator insisting: the process exits
// ExitInterrupted immediately, without waiting on the drain.
//
// SignalContext is idempotent: every call returns the same context
// and cancel function, so a daemon and the batch drivers embedded in
// it share one drain signal instead of racing separate handlers. The
// cancel function releases the signal handler (restoring default
// delivery) and cancels the context; callers defer it as before.
func SignalContext() (context.Context, context.CancelFunc) {
	sigMu.Lock()
	defer sigMu.Unlock()
	if sigCtx == nil {
		sigCtx, sigCancel = signalContext(notifySignals, os.Exit)
	}
	return sigCtx, sigCancel
}

// notifySignals subscribes ch to the interrupt signals and returns
// the unsubscribe function. Split out so tests can inject their own
// delivery channel.
func notifySignals(ch chan os.Signal) func() {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return func() { signal.Stop(ch) }
}

// signalContext implements SignalContext with injectable signal
// delivery and exit, the testable core. The returned cancel is safe
// to call any number of times.
func signalContext(notify func(chan os.Signal) func(), exit func(int)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	stop := notify(ch)
	quit := make(chan struct{})
	var once sync.Once
	release := func() {
		once.Do(func() {
			stop()
			close(quit)
			cancel()
		})
	}
	//lint:ignore goroutine body is only channel selects, cancel, and exit — no user code runs here, and a recover would have nothing sound to record before the second-signal hard exit
	go func() {
		select {
		case <-ch: // first signal: begin graceful drain
		case <-quit: // caller finished without a signal
			return
		}
		cancel()
		select {
		case <-ch: // second signal: the operator wants out now
			exit(ExitInterrupted)
		case <-quit:
		}
	}()
	return ctx, release
}

// CheckpointPath is where OpenState puts the journal inside a state
// directory.
func CheckpointPath(dir string) string { return filepath.Join(dir, "checkpoint.wal") }

// OpenState opens dir's checkpoint journal, creating the directory if
// needed. With resume false any previous journal is discarded first —
// a fresh run must not replay another run's completions; with resume
// true the journal's records carry over and completed work is
// skipped.
func OpenState(dir string, resume bool) (*journal.Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := CheckpointPath(dir)
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return journal.OpenCheckpoint(path)
}

// OpenCache builds the memo cache the -cache/-persist-cache flags ask
// for: nil when neither is set, in-memory for plain -cache, and
// store-backed when a directory is given (the store is opened or
// created, corrupt records quarantined).
func OpenCache(inMemory bool, dir string) (*harness.Cache, error) {
	if dir == "" {
		if !inMemory {
			return nil, nil
		}
		return harness.NewCache(), nil
	}
	st, err := persist.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return harness.NewCacheWithStore(st), nil
}

// OpenCacheRemote builds a memo cache whose durable tier is the
// artifact store served at baseURL (see cmd/sraastore), with localDir
// (optional, "" to skip) as the local tier consulted first, promoted
// into on remote hits, and fallen back to while the store is down.
// baseURL may be a comma-separated list of endpoints — a replica set;
// the client fails over down the list when the preferred endpoint's
// breaker opens and follows 421 redirects to the current primary.
// faultSpec, when non-empty, injects deterministic client-side
// network chaos (see remote.ParseFaultSpec) — test plumbing only.
// The returned client is also the cache's backend; drivers keep it to
// print its stats epilogue.
func OpenCacheRemote(baseURL, localDir, faultSpec string) (*harness.Cache, *remote.Client, error) {
	var local *persist.Store
	if localDir != "" {
		st, err := persist.OpenStore(localDir)
		if err != nil {
			return nil, nil, err
		}
		local = st
	}
	fault, err := remote.ParseFaultSpec(faultSpec)
	if err != nil {
		return nil, nil, err
	}
	var endpoints []string
	for _, u := range strings.Split(baseURL, ",") {
		if u = strings.TrimSpace(u); u != "" {
			endpoints = append(endpoints, u)
		}
	}
	if len(endpoints) == 0 {
		return nil, nil, fmt.Errorf("driver: remote store URL list is empty")
	}
	client := remote.NewClient(remote.Options{
		Endpoints: endpoints,
		Local:     local,
		Transport: fault.Transport(nil),
	})
	return harness.NewCacheWithBackend(client), client, nil
}

// Resumable prints the canonical interrupted-run epilogue: how much
// work is durable and the exact flags that continue it, or, for a run
// without a state directory, how to make the next run resumable.
func Resumable(prog string, completed, total int, stateDir string) {
	if stateDir == "" {
		fmt.Fprintf(os.Stderr, "%s: interrupted at %d/%d; rerun with -state DIR to make runs resumable\n",
			prog, completed, total)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted; resumable at %d/%d (rerun with -state %s -resume)\n",
		prog, completed, total, stateDir)
}
