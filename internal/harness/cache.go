package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/persist"
	"repro/internal/rangeanal"
)

// Cache is a content-addressed memo store for per-function less-than
// results. The key fingerprints every input the per-function solve
// reads — the function's canonical IR text, the interval of every
// integer-typed variable, the element types of every referenced
// global (GEP scaling reads them, and global declarations are not
// part of the function text), and the option flags that change the
// solver's semantics — so a hit is guaranteed to denote the same
// computation, not merely the same source text. Artifacts are
// positional (see core/memo.go) and rebinding verifies every variable
// reference, so even a hash collision cannot silently corrupt a
// result: a mismatched artifact falls back to recomputation.
//
// Cache is safe for concurrent use and may be shared across pipelines
// and modules; that sharing is the point — csmith sweeps and repeated
// experiment phases re-analyze textually identical functions, which
// become table lookups on the second encounter.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*core.FuncArtifact
	hits    int64
	misses  int64
	// disk, when non-nil, is the durable tier behind the in-memory
	// map: lookups fall back to it (a hit promotes the artifact into
	// memory) and stores write through to it, so the cache survives
	// the process. Usually a *persist.Store; a remote.Client slots in
	// for sweeps sharing a network store. See internal/persist.
	disk     CacheBackend
	diskHits int64
}

// CacheBackend is the durable tier under the in-memory map. The
// contract mirrors the rest of the cache: Get answers only with
// validated artifacts (a corrupt or unreachable backend reads as a
// miss, never an error), and a Put failure degrades durability for
// that entry without failing the analysis. *persist.Store is the
// local implementation; remote.Client the networked one.
type CacheBackend interface {
	Get(key string) (*core.FuncArtifact, bool)
	Put(key string, a *core.FuncArtifact) error
}

// backendStats is the optional stats hook a backend may implement
// (persist.Store does); the snapshot surfaces it when present.
type backendStats interface {
	Stats() persist.StoreStats
}

// backendStatsLine is the free-form fallback for backends whose
// counters do not fit StoreStats (the remote client).
type backendStatsLine interface {
	StatsLine() string
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*core.FuncArtifact{}}
}

// NewCacheWithStore returns a cache backed by the durable artifact
// store: every artifact the store already holds is visible to Lookup,
// and every Store writes through to disk atomically, so a second
// process pointed at the same directory reuses every per-function
// solve of the first. Write failures (full disk, permissions) degrade
// the cache to in-memory operation for the failed entry and are
// counted in the store's stats — they never fail the analysis.
func NewCacheWithStore(st *persist.Store) *Cache {
	return &Cache{entries: map[string]*core.FuncArtifact{}, disk: st}
}

// NewCacheWithBackend returns a cache over an arbitrary durable tier —
// the hook the distributed sweep uses to put the remote store client
// under the memo cache. A nil backend yields a plain in-memory cache.
func NewCacheWithBackend(b CacheBackend) *Cache {
	return &Cache{entries: map[string]*core.FuncArtifact{}, disk: b}
}

// Lookup implements core.Memo. Memory is consulted under the lock; the
// durable tier is not. Its Get may be a network fetch with retries and
// backoff (remote.Client), and holding the lock across it would stall
// every other lookup and store in the process, memory hits included,
// and serialize the fetches the client would otherwise coalesce.
func (c *Cache) Lookup(key string) (*core.FuncArtifact, bool) {
	c.mu.Lock()
	a, ok := c.entries[key]
	if ok || c.disk == nil {
		c.count(ok)
		c.mu.Unlock()
		return a, ok
	}
	disk := c.disk
	c.mu.Unlock()

	a, ok = disk.Get(key)

	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, promoted := c.entries[key]; promoted {
		// Another goroutine promoted or stored the key while the
		// backend answered: serve its entry, as a memory hit, so
		// each key is promoted at most once.
		a, ok = cur, true
	} else if ok {
		c.entries[key] = a
		c.diskHits++
	}
	c.count(ok)
	return a, ok
}

// count records one lookup's outcome; c.mu must be held.
func (c *Cache) count(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// Store implements core.Memo.
func (c *Cache) Store(key string, a *core.FuncArtifact) {
	c.mu.Lock()
	c.entries[key] = a
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		// Write-through outside the cache lock: the atomic file write
		// does disk I/O and must not serialize the worker pool. Errors
		// are counted in the store's stats.
		disk.Put(key, a)
	}
}

// Flush makes every cached artifact durable. With write-through
// stores this is already true record by record; Flush exists so
// shutdown paths have one call that asserts it.
func (c *Cache) Flush() {
	// Write-through: nothing buffered. Kept as the explicit shutdown
	// hook so a future buffered implementation has a place to drain.
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
	// DiskHits counts hits served from the durable tier (a subset of
	// Hits); Persistent and Store describe the backing store.
	DiskHits   int64
	Persistent bool
	Store      persist.StoreStats
	// Backend is the backing tier's own stats line when it reports one
	// outside the StoreStats shape (e.g. the remote store client).
	Backend string
}

// HitRate is hits over lookups, 0 when the cache was never consulted.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s CacheStats) String() string {
	base := fmt.Sprintf("entries=%d hits=%d misses=%d hit-rate=%.1f%%",
		s.Entries, s.Hits, s.Misses, 100*s.HitRate())
	if s.Persistent {
		base += fmt.Sprintf(" disk-hits=%d", s.DiskHits)
		if s.Backend != "" {
			base += " " + s.Backend
		} else {
			base += fmt.Sprintf(" store[%s]", s.Store)
		}
	}
	return base
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits}
	if c.disk != nil {
		st.Persistent = true
		if bs, ok := c.disk.(backendStats); ok {
			st.Store = bs.Stats()
		} else if bl, ok := c.disk.(backendStatsLine); ok {
			st.Backend = bl.StatsLine()
		}
	}
	return st
}

// funcKey fingerprints one function's solve inputs. Section order is
// fixed (text, globals, ranges, options) with NUL separators so no
// section can masquerade as another. Inter-procedural seeds are NOT
// part of this key: core appends its own canonical seed suffix, so
// refinement rounds with different seeds never collide.
//
// All four sections are appended into one pooled buffer and hashed
// once, so a key costs one pass over the function and, in steady
// state, one allocation: the returned hex string. A cache hit is only
// worth having when the key costs less than the solve it saves.
func funcKey(f *ir.Func, ranges *rangeanal.Result, opt core.Options) string {
	kb := keyBufs.Get().(*keyBuf)
	b := ir.AppendFunc(kb.b[:0], f)

	// Referenced globals in first-use order (block/instruction order,
	// hence deterministic). Their element types decide GEP scaling.
	b = append(b, "\x00globals\x00"...)
	f.Instrs(func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if g, ok := a.(*ir.Global); ok {
				if _, dup := kb.seen[g]; !dup {
					kb.seen[g] = struct{}{}
					b = append(b, '@')
					b = append(b, g.GName...)
					b = append(b, ':')
					b = ir.AppendType(b, g.Elem)
					b = append(b, ';')
				}
			}
		}
		return true
	})
	clear(kb.seen)

	// Intervals of every integer-typed variable, in the same
	// enumeration order the solver uses (params, then instruction
	// results in block order).
	b = append(b, "\x00ranges\x00"...)
	if !opt.NoRanges && ranges != nil {
		appendIv := func(v ir.Value) {
			if !ir.IsInt(v.Type()) {
				return
			}
			iv := ranges.Range(v)
			b = append(ir.AppendRef(b, v), "=["...)
			b = append(strconv.AppendInt(b, iv.Lo, 10), ',')
			b = append(strconv.AppendInt(b, iv.Hi, 10), "];"...)
		}
		for _, p := range f.Params {
			appendIv(p)
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.HasResult() {
				appendIv(in)
			}
			return true
		})
	}

	b = append(b, "\x00opts:nr="...)
	b = append(strconv.AppendBool(b, opt.NoRanges), ",ns="...)
	b = strconv.AppendBool(b, opt.NonStrict)
	sum := sha256.Sum256(b)
	kb.b = b
	keyBufs.Put(kb)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// keyBuf is funcKey's scratch space: the bytes to hash and the set of
// globals already written. The set is emptied after every key; a map
// keeps first-use deduplication linear in the number of operands.
type keyBuf struct {
	b    []byte
	seen map[*ir.Global]struct{}
}

// keyBufs reuses key buffers across calls and the per-function solves
// of a worker pool, which compute keys concurrently.
var keyBufs = sync.Pool{New: func() any {
	return &keyBuf{seen: map[*ir.Global]struct{}{}}
}}
