// Command sraaworker is one worker of a multi-process sweep. The
// sweep's seeds are partitioned into shards; each worker process
// claims shards through heartbeat-renewed lease files under
// <state>/shards/, pushes every claimed seed through the hardened
// pipeline, and journals the verdict into the shard's checkpoint WAL.
// A worker that dies (SIGKILL included) forfeits its leases within
// the TTL and surviving workers steal the unfinished shards, replay
// their WALs, and complete the remaining seeds — at most the
// in-flight seeds are recomputed, and the merged report is
// byte-identical to a single-process run.
//
// Run N workers against one state directory (and optionally one
// shared sraastore), then produce the merged report:
//
//	sraaworker -state s -shards 4 -runs 100 &
//	sraaworker -state s -shards 4 -runs 100 &
//	wait
//	sraaworker -report -state s -shards 4 -runs 100
//
// The report is a pure function of the journaled verdicts: no
// timings, no worker names, no shard numbers. -report refuses to
// print while shards are incomplete (exit 3), so a partial run can
// never masquerade as a finished one.
//
// Exit status: 0 all assigned shards done; 130 interrupted and
// resumable (rerun the same command); 3 report requested before the
// sweep finished; 1 anything else.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/csmith"
	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/persist/journal"
)

// verdict is the journaled residue of one seed: everything the report
// needs, deterministic by construction (no timings, no hostnames).
type verdict struct {
	Failed    bool   `json:"failed"`
	Signature string `json:"signature,omitempty"`
	Fatal     string `json:"fatal,omitempty"`
	Note      string `json:"note,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	stateDir := flag.String("state", "", "shared state directory (required): shard WALs, leases, and done markers live under <state>/shards/")
	shards := flag.Int("shards", 4, "number of shards the seed space is partitioned into (must match across workers and -report)")
	seed := flag.Int64("seed", 1, "first seed of the sweep")
	runs := flag.Int("runs", 16, "number of consecutive seeds, starting at -seed")
	depth := flag.Int("depth", 3, "generator: maximum pointer nesting depth")
	stmts := flag.Int("stmts", 60, "generator: approximate number of statements")
	jobs := flag.Int("jobs", runtime.NumCPU(), "seeds checked concurrently within a claimed shard")
	owner := flag.String("owner", "", "worker identity in lease files (default host-pid)")
	ttl := flag.Duration("lease-ttl", 5*time.Second, "shard lease TTL; a worker silent this long forfeits its shards")
	report := flag.Bool("report", false, "coordinator mode: merge the shard WALs and print the deterministic sweep report")
	useCache := flag.Bool("cache", false, "share an in-memory memo cache across this worker's shards")
	cacheDir := flag.String("persist-cache", "", "local durable memo store directory")
	remoteStore := flag.String("remote-store", "", "base URL of a shared sraastore (e.g. http://127.0.0.1:8178); -persist-cache becomes its local tier")
	chaos := flag.String("chaos", "", "testing only: client-side network chaos spec for the remote store connection")
	injectCrash := flag.String("inject-crash", "", "testing only: after=N[,times=K] — hard-exit mid-sweep once N seeds are processed fleet-wide, at most K times across restarts (counters live in -state)")
	flag.Parse()

	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "sraaworker: -state is required")
		return 1
	}
	if *shards < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "sraaworker: -shards and -runs must be positive")
		return 1
	}
	crash, err := parseCrashPlan(*injectCrash, *stateDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sraaworker:", err)
		return 1
	}
	if crash != nil {
		fmt.Fprintf(os.Stderr, "sraaworker: CRASH INJECTION ACTIVE: %s\n", *injectCrash)
	}

	// The corpus is a pure function of (-seed, -runs, generator knobs):
	// every worker and the coordinator reconstruct the identical item
	// list, so names — the journal keys — always line up.
	items := make([]harness.BatchItem, *runs)
	for i := range items {
		s := *seed + int64(i)
		items[i] = harness.BatchItem{
			Name: fmt.Sprintf("sweep_seed%d", s),
			Src:  csmith.Generate(csmith.Config{Seed: s, MaxPtrDepth: *depth, Stmts: *stmts}),
		}
	}

	if *report {
		return printReport(*stateDir, *shards, items)
	}

	var cache *harness.Cache
	if *remoteStore != "" {
		c, client, err := driver.OpenCacheRemote(*remoteStore, *cacheDir, *chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sraaworker:", err)
			return 1
		}
		cache = c
		defer func() { fmt.Fprintf(os.Stderr, "sraaworker: %s\n", client.StatsLine()) }()
	} else {
		c, err := driver.OpenCache(*useCache, *cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sraaworker:", err)
			return 1
		}
		cache = c
	}

	who := *owner
	if who == "" {
		host, _ := os.Hostname()
		who = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := driver.SignalContext()
	defer stop()

	// The per-seed budget is deliberately unlimited: wall-clock budgets
	// make verdicts depend on machine load, which would break the
	// byte-identical merge the distribution contract promises. The
	// generated corpus is small and bounded; determinism wins.
	cfg := harness.Config{WithCF: true, Cache: cache}

	wrep, err := driver.RunShardWorker(ctx, *stateDir, who, *shards, *ttl,
		func(sctx context.Context, shard int, ck *journal.Checkpoint) error {
			var sub []harness.BatchItem
			for i := range items {
				if driver.ShardOf(i, *shards) == shard {
					sub = append(sub, items[i])
				}
			}
			_, _, err := harness.RunBatchCtx(sctx, cfg, *jobs, sub,
				harness.NewBatchCheckpoint[verdict](ck, ""),
				func(i int, out *harness.BatchOutcome) {
					out.Value = distill(out)
					// Fold hard errors into the verdict so they journal:
					// the pipeline is deterministic, so an error verdict
					// is an outcome every run of this seed produces.
					out.Err = nil
					crash.tick()
				}, nil)
			if err != nil {
				return err
			}
			// Paranoia: the done marker asserts "every item is durable";
			// verify rather than assume.
			for _, it := range sub {
				if _, ok := ck.Done(it.Name); !ok {
					return fmt.Errorf("shard %d: item %s missing from journal after clean run", shard, it.Name)
				}
			}
			return nil
		})

	fmt.Fprintf(os.Stderr, "sraaworker %s: shards done=%d claims=%d steals=%d lease-lost=%d blocked=%d\n",
		who, len(wrep.Completed), wrep.Claims, wrep.Steals, wrep.LeaseLost, wrep.Blocked)
	if cache != nil {
		fmt.Fprintf(os.Stderr, "sraaworker: cache %s\n", cache.Stats())
	}
	if err != nil {
		driver.Resumable("sraaworker", len(wrep.Completed), *shards, *stateDir)
		return driver.ExitInterrupted
	}
	fmt.Fprintf(os.Stderr, "sraaworker %s: all %d shard(s) done\n", who, *shards)
	return 0
}

// crashPlan is the parsed -inject-crash spec: kill this process — no
// drain, no lease release, deferred functions skipped — once the
// fleet has processed `after` seeds, and again every further `after`
// seeds up to `times` total kills. The counters live in the shared
// state directory so the plan survives restarts and coordinates
// across workers: a tick file grows one byte per processed seed, and
// each kill is claimed by an O_EXCL marker so exactly `times` crashes
// happen no matter how many workers race for them.
type crashPlan struct {
	after, times int
	state        string
}

func parseCrashPlan(spec, stateDir string) (*crashPlan, error) {
	if spec == "" {
		return nil, nil
	}
	p := &crashPlan{times: 1, state: stateDir}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(part, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil || n < 1 {
			return nil, fmt.Errorf("inject-crash: bad field %q (want after=N or times=K, N,K >= 1)", part)
		}
		switch k {
		case "after":
			p.after = n
		case "times":
			p.times = n
		default:
			return nil, fmt.Errorf("inject-crash: unknown field %q", k)
		}
	}
	if p.after < 1 {
		return nil, fmt.Errorf("inject-crash: after=N is required")
	}
	return p, nil
}

// tick records one processed seed and dies if this process drew the
// short straw. Nil-safe: production runs call it on a nil plan.
func (p *crashPlan) tick() {
	if p == nil {
		return
	}
	tickPath := filepath.Join(p.state, "crash-ticks")
	f, err := os.OpenFile(tickPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	_, werr := f.Write([]byte{'.'})
	f.Close()
	if werr != nil {
		return
	}
	fi, err := os.Stat(tickPath)
	if err != nil {
		return
	}
	ticks := int(fi.Size())
	crashed := 0
	for crashed < p.times {
		if _, err := os.Stat(p.marker(crashed)); err != nil {
			break
		}
		crashed++
	}
	if crashed >= p.times || ticks < p.after*(crashed+1) {
		return
	}
	m, err := os.OpenFile(p.marker(crashed), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return // another worker claimed this kill first
	}
	m.Close()
	fmt.Fprintf(os.Stderr, "sraaworker: INJECTED CRASH %d/%d after %d seed(s) fleet-wide\n", crashed+1, p.times, ticks)
	os.Exit(7)
}

func (p *crashPlan) marker(i int) string {
	return filepath.Join(p.state, fmt.Sprintf("crash-%d.marker", i))
}

// distill compresses one outcome into its journaled verdict.
func distill(out *harness.BatchOutcome) verdict {
	v := verdict{}
	rep := out.Pipe.Report()
	if out.Err != nil || !rep.Ok() {
		v.Failed = true
		if len(rep.Failures) > 0 {
			v.Signature = rep.Failures[0].Signature()
		} else if out.Err != nil {
			v.Signature = "compile:error"
		}
		if out.Err != nil {
			v.Fatal = out.Err.Error()
		}
		v.Note = rep.Summary()
	}
	return v
}

// printReport merges the shard WALs and prints the deterministic
// sweep report: one line per seed in seed order, then a summary. The
// report is the byte-compared artifact of the kill-and-resume E2E, so
// nothing run-dependent (timings, workers, shard layout) may appear.
func printReport(dir string, shards int, items []harness.BatchItem) int {
	if !driver.AllShardsDone(dir, shards) {
		fmt.Fprintln(os.Stderr, "sraaworker: sweep incomplete; refusing to report (rerun workers to finish)")
		return 3
	}
	merged, err := driver.MergeShardCheckpoints(dir, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sraaworker:", err)
		return 1
	}
	failed := 0
	for _, it := range items {
		raw, ok := merged[it.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "sraaworker: %s missing from journals despite done markers\n", it.Name)
			return 1
		}
		var v verdict
		if err := json.Unmarshal(raw, &v); err != nil {
			fmt.Fprintf(os.Stderr, "sraaworker: %s: undecodable verdict: %v\n", it.Name, err)
			return 1
		}
		if v.Failed {
			failed++
			fmt.Printf("%s FAIL %s\n", it.Name, v.Signature)
			continue
		}
		fmt.Printf("%s ok\n", it.Name)
	}
	fmt.Printf("sweep: %d seed(s), %d failed\n", len(items), failed)
	return 0
}
