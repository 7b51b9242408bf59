package harness

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/persist"
	"repro/internal/persist/journal"
)

// TestPersistentCacheWarmAcrossReopen: a second cache opened over the
// same store directory — a fresh process, as far as the cache can
// tell — serves every per-function solve from disk and produces
// byte-identical canonical output.
func TestPersistentCacheWarmAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	progs := corpus.TestSuite(6)
	items := make([]BatchItem, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: p.Name, Src: p.Source}
	}
	eval := func(i int, out *BatchOutcome) {
		if out.Err == nil {
			out.Value = canonical(out.Pipe, out.Res)
		}
	}

	runOnce := func() ([]string, CacheStats) {
		st, err := persist.OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		cache := NewCacheWithStore(st)
		outs := RunBatch(Config{Cache: cache}, 4, items, eval, nil)
		got := make([]string, len(outs))
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("%s: %v", out.Name, out.Err)
			}
			got[i] = out.Value.(string)
		}
		return got, cache.Stats()
	}

	cold, coldStats := runOnce()
	if !coldStats.Persistent || coldStats.Store.Puts == 0 {
		t.Fatalf("cold run wrote nothing through: %s", coldStats)
	}
	if coldStats.DiskHits != 0 {
		t.Fatalf("cold run claims disk hits against an empty store: %s", coldStats)
	}

	warm, warmStats := runOnce()
	if warmStats.DiskHits < 1 {
		t.Fatalf("warm run never hit the disk store: %s", warmStats)
	}
	if warmStats.Store.Quarantined != 0 || warmStats.Store.PutErrors != 0 {
		t.Fatalf("warm run saw store damage: %s", warmStats)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("%s: disk-served artifacts changed the canonical output", items[i].Name)
		}
	}
	// The warm store must have re-loaded everything the cold run put.
	if warmStats.Store.Loaded == 0 {
		t.Fatalf("reopened store loaded nothing: %s", warmStats)
	}
}

// canonCheckpoint journals each item's canonical output string.
func canonCheckpoint(c *journal.Checkpoint) *BatchCheckpoint {
	return NewBatchCheckpoint[string](c, "")
}

// TestCheckpointResumeEquality: a run resumed over a complete journal
// replays every item without recomputation and reproduces the
// uninterrupted run's outputs exactly.
func TestCheckpointResumeEquality(t *testing.T) {
	progs := corpus.TestSuite(6)
	items := make([]BatchItem, len(progs))
	want := make([]string, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: p.Name, Src: p.Source}
		want[i] = canonicalRun(t, p.Name, p.Source, Config{})
	}
	eval := func(i int, out *BatchOutcome) {
		if out.Err == nil {
			out.Value = canonical(out.Pipe, out.Res)
		}
	}
	path := filepath.Join(t.TempDir(), "batch.wal")

	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	outs, completed, err := RunBatchCtx(context.Background(), Config{}, 4, items, canonCheckpoint(ck), eval, nil)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if completed != len(items) {
		t.Fatalf("first run completed %d/%d", completed, len(items))
	}
	for i, out := range outs {
		if out.Replayed {
			t.Fatalf("%s: nothing to replay on a fresh journal", out.Name)
		}
		if out.Value.(string) != want[i] {
			t.Fatalf("%s: checkpointed run output differs", out.Name)
		}
	}
	ck.Close()

	ck2, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Count() != len(items) {
		t.Fatalf("journal replayed %d records, want %d", ck2.Count(), len(items))
	}
	outs2, completed2, err := RunBatchCtx(context.Background(), Config{}, 4, items, canonCheckpoint(ck2), eval, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if completed2 != len(items) {
		t.Fatalf("resumed run completed %d/%d", completed2, len(items))
	}
	for i, out := range outs2 {
		if !out.Replayed {
			t.Fatalf("%s: recomputed despite a complete journal", out.Name)
		}
		if out.Pipe != nil || out.Res != nil {
			t.Fatalf("%s: replayed outcome carries live pipeline state", out.Name)
		}
		if out.Value.(string) != want[i] {
			t.Fatalf("%s: replayed output differs from uninterrupted run", out.Name)
		}
	}
}

// TestCancelDrainThenResume: cancel a batch mid-flight, then resume
// it under a fresh context over the same journal. The resumed run's
// outputs must equal an uninterrupted run's — canceled or in-flight
// items must never have been journaled.
func TestCancelDrainThenResume(t *testing.T) {
	progs := corpus.TestSuite(8)
	items := make([]BatchItem, len(progs))
	want := make([]string, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: p.Name, Src: p.Source}
		want[i] = canonicalRun(t, p.Name, p.Source, Config{})
	}
	path := filepath.Join(t.TempDir(), "batch.wal")

	ck, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done int32
	_, completed, err := RunBatchCtx(ctx, Config{}, 2, items, canonCheckpoint(ck),
		func(i int, out *BatchOutcome) {
			if out.Err == nil {
				out.Value = canonical(out.Pipe, out.Res)
			}
			// Pull the plug after the third completion; the remaining
			// workers drain, the rest is never dispatched.
			if atomic.AddInt32(&done, 1) == 3 {
				cancel()
			}
		}, func(i int, out *BatchOutcome) {
			t.Fatal("post must not run on a canceled batch")
		})
	cancel()
	if err == nil {
		t.Fatal("canceled batch reported success")
	}
	if completed >= len(items) {
		t.Fatalf("canceled batch claims full completion (%d/%d)", completed, len(items))
	}
	ck.Close()

	ck2, err := journal.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if n := ck2.Count(); n == 0 || n >= len(items) {
		t.Fatalf("journal holds %d records after a mid-run kill, want 1..%d", n, len(items)-1)
	}
	eval := func(i int, out *BatchOutcome) {
		if out.Err == nil {
			out.Value = canonical(out.Pipe, out.Res)
		}
	}
	outs, completed2, err := RunBatchCtx(context.Background(), Config{}, 2, items, canonCheckpoint(ck2), eval, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if completed2 != len(items) {
		t.Fatalf("resumed run completed %d/%d", completed2, len(items))
	}
	replayed := 0
	for i, out := range outs {
		if out.Replayed {
			replayed++
		}
		if out.Value.(string) != want[i] {
			t.Fatalf("%s: resumed output differs from uninterrupted run (replayed=%t)", out.Name, out.Replayed)
		}
	}
	if replayed == 0 {
		t.Fatal("resume recomputed everything; journal was ignored")
	}
}

// TestCheckpointReplaysOnlyItsShape: a journaled record replays only
// into the shape of value that wrote it. A record of another shape,
// one whose fields json.Unmarshal would silently leave zero, is
// recomputed instead.
func TestCheckpointReplaysOnlyItsShape(t *testing.T) {
	type row struct {
		Queries int            `json:"queries"`
		No      map[string]int `json:"no"`
	}
	progs := corpus.TestSuite(3)
	items := make([]BatchItem, len(progs))
	for i, p := range progs {
		items[i] = BatchItem{Name: p.Name, Src: p.Source}
	}
	ck, err := journal.OpenCheckpoint(filepath.Join(t.TempDir(), "batch.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	for i, v := range []any{
		map[string]any{"Queries": 7, "BA": 6.6},                  // unknown field
		map[string]any{"queries": 7},                             // missing field
		row{Queries: 7, No: map[string]int{"BA": 1, "BA+LT": 2}}, // its own shape
	} {
		if err := ck.Record(items[i].Name, v); err != nil {
			t.Fatal(err)
		}
	}
	outs, _, err := RunBatchCtx(context.Background(), Config{}, 1, items, NewBatchCheckpoint[row](ck, ""),
		func(i int, out *BatchOutcome) { out.Value = row{Queries: 42} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantReplay := range []bool{false, false, true} {
		out := outs[i]
		if out.Replayed != wantReplay {
			t.Errorf("%s: replayed = %t, want %t", out.Name, out.Replayed, wantReplay)
		}
		if q := out.Value.(row).Queries; (q == 7) != wantReplay {
			t.Errorf("%s: queries = %d", out.Name, q)
		}
	}
}
