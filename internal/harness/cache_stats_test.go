package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
)

// The serving daemon shares one Cache across every in-flight request
// and exports its counters on /stats, so the counters must stay
// exact — not merely race-free — under heavy concurrent mixing of
// hits, misses, disk promotions, and stores. These tests pin the
// arithmetic: every Lookup is counted exactly once as a hit or a
// miss, and every distinct disk promotion exactly once.

func statsArtifact(i int) *core.FuncArtifact {
	return &core.FuncArtifact{
		Vars: []string{fmt.Sprintf("%%v%d", i)},
		Sets: [][]int32{{}},
		Stats: core.FuncStats{
			Instrs: i, Vars: 1, SetSizes: map[int]int{0: 1},
		},
	}
}

func statsKey(i int) string { return fmt.Sprintf("%064x", i) }

// TestCacheStatsConcurrentExact hammers a store-backed cache from
// many goroutines and checks the totals add up exactly.
func TestCacheStatsConcurrentExact(t *testing.T) {
	dir := t.TempDir()

	// Prepopulate the durable store with diskKeys artifacts through a
	// throwaway cache, then reopen so the second cache starts cold in
	// memory but warm on disk.
	const diskKeys = 8
	st, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCacheWithStore(st)
	for i := 0; i < diskKeys; i++ {
		warm.Store(statsKey(i), statsArtifact(i))
	}

	st2, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheWithStore(st2)

	const (
		workers = 16
		rounds  = 50
		// Each worker round touches: diskKeys prepopulated keys,
		// memKeys keys stored during the run, missKeys never-stored
		// keys.
		memKeys  = 4
		missKeys = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < diskKeys; i++ {
					if _, ok := c.Lookup(statsKey(i)); !ok {
						t.Errorf("disk-backed key %d missed", i)
					}
				}
				for i := 0; i < memKeys; i++ {
					k := statsKey(100 + i)
					if _, ok := c.Lookup(k); !ok {
						c.Store(k, statsArtifact(100+i))
					}
				}
				for i := 0; i < missKeys; i++ {
					c.Lookup(statsKey(1000 + 10*w + i)) // per-worker, never stored
				}
			}
		}(w)
	}
	wg.Wait()

	st3 := c.Stats()
	totalLookups := int64(workers * rounds * (diskKeys + memKeys + missKeys))
	if st3.Hits+st3.Misses != totalLookups {
		t.Errorf("hits %d + misses %d = %d, want exactly %d lookups",
			st3.Hits, st3.Misses, st3.Hits+st3.Misses, totalLookups)
	}
	// Disk-backed keys are promoted into memory at most once each;
	// every other lookup of them is a memory hit.
	if st3.DiskHits != diskKeys {
		t.Errorf("disk hits = %d, want exactly %d (one promotion per stored key)", st3.DiskHits, diskKeys)
	}
	// Misses: never-stored keys always miss; each mem key misses at
	// least once (before the first Store) and each disk key never
	// misses. The miss count is bounded, not fixed — the Lookup/Store
	// pair is not atomic — but the floor and ceiling are exact.
	minMisses := int64(workers * rounds * missKeys)
	maxMisses := minMisses + int64(workers*memKeys) // every worker can lose the race once per key
	if st3.Misses < minMisses || st3.Misses > maxMisses {
		t.Errorf("misses = %d, want in [%d, %d]", st3.Misses, minMisses, maxMisses)
	}
	if st3.Entries != diskKeys+memKeys {
		t.Errorf("entries = %d, want %d", st3.Entries, diskKeys+memKeys)
	}
	if !st3.Persistent {
		t.Error("store-backed cache not marked persistent")
	}
	if st3.Store.Loaded != diskKeys {
		t.Errorf("store loaded = %d, want %d", st3.Store.Loaded, diskKeys)
	}
	if st3.Store.PutErrors != 0 {
		t.Errorf("store put errors = %d", st3.Store.PutErrors)
	}

	// The snapshot rate agrees with its own counters.
	if got, want := st3.HitRate(), float64(st3.Hits)/float64(st3.Hits+st3.Misses); got != want {
		t.Errorf("HitRate() = %f, want %f", got, want)
	}
}

// TestCacheStatsInMemoryConcurrent is the pure in-memory variant: no
// store, so DiskHits must stay zero and Persistent false.
func TestCacheStatsInMemoryConcurrent(t *testing.T) {
	c := NewCache()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := statsKey(i % 5)
				if _, ok := c.Lookup(k); !ok {
					c.Store(k, statsArtifact(i%5))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*perWorker {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*perWorker)
	}
	if st.DiskHits != 0 || st.Persistent {
		t.Errorf("in-memory cache reports disk: diskHits=%d persistent=%t", st.DiskHits, st.Persistent)
	}
	if st.Entries != 5 {
		t.Errorf("entries = %d, want 5", st.Entries)
	}
}

// blockingBackend is a durable tier whose Get blocks until released,
// as a remote fetch does through its retry and backoff schedule. It
// answers with art, or misses when art is nil.
type blockingBackend struct {
	entered, release chan struct{}
	art              *core.FuncArtifact
}

func (b *blockingBackend) Get(string) (*core.FuncArtifact, bool) {
	b.entered <- struct{}{}
	<-b.release
	return b.art, b.art != nil
}

func (b *blockingBackend) Put(string, *core.FuncArtifact) error { return nil }

// TestLookupDoesNotWaitOnBackend: while one lookup waits on the durable
// tier, a lookup of a key already in memory and a store both complete.
// Holding the cache lock across the fetch made them wait for it.
func TestLookupDoesNotWaitOnBackend(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCacheWithBackend(bb)
	c.Store(statsKey(1), statsArtifact(1))

	cold := make(chan bool)
	go func() {
		_, ok := c.Lookup(statsKey(2))
		cold <- ok
	}()
	<-bb.entered // the cold lookup is inside the backend

	warm := make(chan bool)
	go func() {
		_, ok := c.Lookup(statsKey(1))
		c.Store(statsKey(3), statsArtifact(3))
		warm <- ok
	}()
	select {
	case ok := <-warm:
		if !ok {
			t.Error("in-memory key missed")
		}
	case <-time.After(2 * time.Second):
		close(bb.release)
		<-warm
		<-cold
		t.Fatal("a memory hit and a store waited on another lookup's backend fetch")
	}
	close(bb.release)
	if <-cold {
		t.Error("cold key hit a backend that has nothing")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.DiskHits != 0 || st.Entries != 2 {
		t.Errorf("stats %+v, want 1 hit, 1 miss, 0 disk hits, 2 entries", st)
	}
}

// TestLookupPromotionRace: when another goroutine stores a key while a
// lookup of it waits on the backend, the lookup returns the entry
// already in memory and counts a memory hit, not a second promotion.
func TestLookupPromotionRace(t *testing.T) {
	disk, mem := statsArtifact(7), statsArtifact(8)
	bb := &blockingBackend{entered: make(chan struct{}), release: make(chan struct{}), art: disk}
	c := NewCacheWithBackend(bb)

	got := make(chan *core.FuncArtifact)
	go func() {
		a, _ := c.Lookup(statsKey(7))
		got <- a
	}()
	<-bb.entered
	stored := make(chan struct{})
	go func() {
		c.Store(statsKey(7), mem)
		close(stored)
	}()
	select {
	case <-stored:
	case <-time.After(2 * time.Second):
		close(bb.release)
		<-stored
		<-got
		t.Fatal("a store waited on another lookup's backend fetch")
	}
	close(bb.release)
	if a := <-got; a != mem {
		t.Errorf("lookup returned the backend's artifact over the one in memory")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.DiskHits != 0 {
		t.Errorf("stats %+v, want 1 memory hit and no disk hit", st)
	}
}
