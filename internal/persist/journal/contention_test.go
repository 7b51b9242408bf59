package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Contention and torn-tail coverage for the WAL, plus the shard lease
// protocol: the multi-process sweep's correctness rests on "two
// appenders can never interleave" and "a tail record cut mid-CRC is
// truncated, never trusted".

// TestSecondAppenderFailsCleanly: the WAL is single-writer. A second
// Open of a journal that is still held must fail with ErrLocked —
// cleanly, without disturbing the holder — and succeed after Close.
func TestSecondAppenderFailsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w1, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}

	// The refused opener must not have damaged the holder.
	if err := w1.Append([]byte("second")); err != nil {
		t.Fatalf("holder append after contention: %v", err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Open(path)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer w2.Close()
	if len(rec.Records) != 2 || string(rec.Records[0]) != "first" || string(rec.Records[1]) != "second" {
		t.Fatalf("replay after contention = %q", rec.Records)
	}
}

// TestConcurrentAppendsSerialize: many goroutines over one writer —
// the in-process sharing mode — must produce a journal whose replay
// holds every record intact, nothing interleaved or torn.
func TestConcurrentAppendsSerialize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append(fmt.Appendf(nil, "g%d-i%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), writers*per)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("torn bytes after clean close: %d", rec.TornBytes)
	}
	seen := map[string]bool{}
	for _, r := range rec.Records {
		seen[string(r)] = true
	}
	for g := 0; g < writers; g++ {
		for i := 0; i < per; i++ {
			if !seen[fmt.Sprintf("g%d-i%d", g, i)] {
				t.Fatalf("record g%d-i%d missing or interleaved", g, i)
			}
		}
	}
}

// TestTornTailMidCRC: a kill that lands while the record header's CRC
// field is half-written leaves a tail that parses as neither a length
// nor a checksum. Open must truncate exactly back to the last valid
// boundary and keep appending from there.
func TestTornTailMidCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a torn record by hand: full 4-byte length, then only 2 of
	// the 4 CRC bytes — the cut lands mid-CRC, before any payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 6)
	binary.LittleEndian.PutUint32(torn, 7) // claims a 7-byte payload
	torn[4], torn[5] = 0xde, 0xad          // half a CRC
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "durable" {
		t.Fatalf("records after torn-CRC tail = %q", rec.Records)
	}
	if rec.TornBytes != 6 {
		t.Fatalf("TornBytes = %d, want 6", rec.TornBytes)
	}
	if err := w2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) != 2 || string(rec2.Records[1]) != "after" {
		t.Fatalf("records after truncate+append = %q", rec2.Records)
	}
}

// TestReadRecordsIsReadOnly: the coordinator's replay must not repair
// the file — a torn tail stays on disk for the owner to truncate.
func TestReadRecordsIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01}) // torn length prefix
	f.Close()
	before, _ := os.Stat(path)

	rec, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.TornBytes != 1 {
		t.Fatalf("read-only replay: records=%d torn=%d", len(rec.Records), rec.TornBytes)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Fatalf("ReadRecords changed the file size: %d -> %d", before.Size(), after.Size())
	}

	// And it must work while an appender holds the lock.
	w2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := ReadRecords(path); err != nil {
		t.Fatalf("read-only replay under a held lock: %v", err)
	}
}

// TestLeaseLifecycle: claim, contend, heartbeat, steal-after-expiry,
// and the loser noticing via ErrLeaseLost.
func TestLeaseLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.lease")

	a, err := AcquireLease(path, 0, "worker-a", 200*time.Millisecond)
	if err != nil || a == nil {
		t.Fatalf("initial acquire: lease=%v err=%v", a, err)
	}

	// A live lease is unavailable to others — no error, just refusal.
	if b, err := AcquireLease(path, 0, "worker-b", 200*time.Millisecond); err != nil || b != nil {
		t.Fatalf("contended acquire: lease=%v err=%v, want nil,nil", b, err)
	}

	// Heartbeats keep it alive past the original deadline.
	for i := 0; i < 3; i++ {
		time.Sleep(80 * time.Millisecond)
		if err := a.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if b, _ := AcquireLease(path, 0, "worker-b", 200*time.Millisecond); b != nil {
		t.Fatal("renewed lease was stolen")
	}

	// Let it expire; the steal must bump the epoch, and the old
	// holder's next heartbeat must report the loss.
	time.Sleep(250 * time.Millisecond)
	b, err := AcquireLease(path, 0, "worker-b", 200*time.Millisecond)
	if err != nil || b == nil {
		t.Fatalf("steal after expiry: lease=%v err=%v", b, err)
	}
	if b.Epoch <= a.Epoch {
		t.Fatalf("stolen epoch %d not above original %d", b.Epoch, a.Epoch)
	}
	if err := a.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder Renew = %v, want ErrLeaseLost", err)
	}
	if err := a.Release(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder Release = %v, want ErrLeaseLost", err)
	}

	// The thief's release frees the shard for a fresh claim.
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	c, err := AcquireLease(path, 0, "worker-c", 200*time.Millisecond)
	if err != nil || c == nil {
		t.Fatalf("acquire after release: lease=%v err=%v", c, err)
	}
}

// TestLeaseStealRace: N workers race to steal one expired lease; at
// most one may confirm the claim.
func TestLeaseStealRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.lease")
	orig, err := AcquireLease(path, 0, "dead-worker", time.Millisecond)
	if err != nil || orig == nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it expire

	const thieves = 8
	winners := make([]*Lease, thieves)
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := AcquireLease(path, 0, fmt.Sprintf("thief-%d", i), time.Minute)
			if err != nil {
				t.Errorf("thief %d: %v", i, err)
				return
			}
			winners[i] = l
		}(i)
	}
	wg.Wait()
	var won []*Lease
	for _, l := range winners {
		if l != nil {
			won = append(won, l)
		}
	}
	if len(won) > 1 {
		t.Fatalf("%d thieves confirmed the same lease", len(won))
	}
	// Zero winners is legal (mutual destruction); the retry loop in
	// the worker handles it. But if one won, the file must name it.
	if len(won) == 1 {
		got, err := readLease(path)
		if err != nil || got.Owner != won[0].Owner {
			t.Fatalf("lease file owner %q does not match winner %q (err %v)", got.Owner, won[0].Owner, err)
		}
	}
}

// TestLeaseStealOneThiefPerEpoch interleaves two thieves
// deterministically: the second runs its whole steal between the
// first's read of the stale lease and its removal. Without a guard the
// first then removed the second's fresh lease, linked its own, and
// both confirmed the same epoch. Exactly one may win, and the lease
// file must name it.
//
// The second thief runs before the first takes the sidecar lock, so
// this pins the re-read under the lock;
// TestLeaseStealBacksOffWhileLocked pins the lock.
func TestLeaseStealOneThiefPerEpoch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale func(t *testing.T, path string)
		epoch int64
	}{
		{"expired", func(t *testing.T, path string) {
			if l, err := AcquireLease(path, 0, "dead-worker", time.Millisecond); err != nil || l == nil {
				t.Fatalf("initial acquire: lease=%v err=%v", l, err)
			}
			time.Sleep(20 * time.Millisecond) // let it expire
		}, 2},
		{"corrupt", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard-0.lease")
			tc.stale(t, path)
			var second *Lease
			ran := false
			claimRaceHook = func() {
				claimRaceHook = nil // the second thief runs unhooked
				ran = true
				l, err := AcquireLease(path, 0, "thief-b", time.Minute)
				if err != nil {
					t.Errorf("thief-b: %v", err)
				}
				second = l
			}
			defer func() { claimRaceHook = nil }()
			first, err := AcquireLease(path, 0, "thief-a", time.Minute)
			if err != nil {
				t.Fatalf("thief-a: %v", err)
			}
			if !ran {
				t.Fatal("the steal never reached the race hook")
			}
			var won []*Lease
			for _, l := range []*Lease{first, second} {
				if l != nil {
					won = append(won, l)
				}
			}
			if len(won) != 1 {
				t.Fatalf("%d thieves confirmed epoch %d, want exactly 1", len(won), tc.epoch)
			}
			if won[0].Epoch != tc.epoch {
				t.Errorf("winner %s holds epoch %d, want %d", won[0].Owner, won[0].Epoch, tc.epoch)
			}
			got, err := readLease(path)
			if err != nil || got.Owner != won[0].Owner || got.Epoch != won[0].Epoch {
				t.Fatalf("lease file names %q epoch %d (err %v), winner %q", got.Owner, got.Epoch, err, won[0].Owner)
			}
		})
	}
}

// TestLeaseStealBacksOffWhileLocked: a thief that finds another
// holding the sidecar lock mid-steal backs off without touching the
// lease, and steals once the lock is free.
func TestLeaseStealBacksOffWhileLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.lease")
	if l, err := AcquireLease(path, 0, "dead-worker", time.Millisecond); err != nil || l == nil {
		t.Fatalf("initial acquire: lease=%v err=%v", l, err)
	}
	time.Sleep(20 * time.Millisecond) // let it expire
	unlock, err := lockPath(path + ".steal")
	if err != nil {
		t.Fatal(err)
	}
	if l, err := AcquireLease(path, 0, "thief", time.Minute); err != nil || l != nil {
		unlock()
		t.Fatalf("steal under another's lock: lease=%v err=%v, want nil,nil", l, err)
	}
	if got, err := readLease(path); err != nil || got.Owner != "dead-worker" {
		unlock()
		t.Fatalf("lease after a blocked steal: owner=%q err=%v, want dead-worker", got.Owner, err)
	}
	unlock()
	if l, err := AcquireLease(path, 0, "thief", time.Minute); err != nil || l == nil || l.Epoch != 2 {
		t.Fatalf("steal after unlock: lease=%v err=%v, want epoch 2", l, err)
	}
}

// TestLeaseCorruptFileIsClaimable: a torn or garbage lease file is
// damage, not a claim — the next worker removes it and takes over.
// So is a live-looking record with an epoch below 1, which no claim
// writes.
func TestLeaseCorruptFileIsClaimable(t *testing.T) {
	future := time.Now().Add(time.Hour).UnixMilli()
	for _, body := range []string{
		"{torn",
		fmt.Sprintf(`{"shard":3,"owner":"worker-b","epoch":0,"expires_unix_ms":%d}`, future),
		fmt.Sprintf(`{"shard":3,"owner":"worker-b","epoch":-2,"expires_unix_ms":%d}`, future),
	} {
		path := filepath.Join(t.TempDir(), "shard-3.lease")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := AcquireLease(path, 3, "worker-a", time.Minute)
		if err != nil || l == nil {
			t.Fatalf("acquire over corrupt lease %s: lease=%v err=%v", body, l, err)
		}
		if l.Epoch != 1 {
			t.Fatalf("epoch over corrupt lease %s = %d, want 1", body, l.Epoch)
		}
	}
}

// TestRenewDetectsStealImmediately pins the verify-by-reread on the
// heartbeat path: a steal that lands between the renewal's write and
// its verification is reported as ErrLeaseLost on THAT heartbeat —
// the fenced worker must not walk away believing it extended a lease
// another worker now holds.
func TestRenewDetectsStealImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.lease")
	a, err := AcquireLease(path, 0, "worker-a", time.Minute)
	if err != nil || a == nil {
		t.Fatalf("acquire: lease=%v err=%v", a, err)
	}

	// Interleave the steal in the window after Renew's write: another
	// worker replaces the file with its own bumped-epoch claim.
	renewRaceHook = func() {
		renewRaceHook = nil // steal once
		rec := leaseRecord{Shard: 0, Owner: "thief", Epoch: a.Epoch + 1,
			Expires: time.Now().Add(time.Minute).UnixMilli()}
		if err := linkLease(path+".thief", rec); err != nil {
			t.Errorf("thief write: %v", err)
		}
		if err := os.Rename(path+".thief", path); err != nil {
			t.Errorf("thief install: %v", err)
		}
	}
	defer func() { renewRaceHook = nil }()

	if err := a.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Renew with mid-flight steal = %v, want ErrLeaseLost", err)
	}
	// The thief's claim survives the fenced worker's discovery.
	got, err := readLease(path)
	if err != nil || got.Owner != "thief" {
		t.Fatalf("lease file after fencing: owner=%q err=%v, want thief", got.Owner, err)
	}
}

// TestRenewVerifiesItsOwnWrite: a healthy renewal still passes the
// verification (no false ErrLeaseLost from the re-read itself).
func TestRenewVerifiesOwnWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-1.lease")
	a, err := AcquireLease(path, 1, "worker-a", time.Minute)
	if err != nil || a == nil {
		t.Fatalf("acquire: lease=%v err=%v", a, err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Renew(); err != nil {
			t.Fatalf("healthy renew %d: %v", i, err)
		}
	}
}

// TestBreakLease pins the supervisor's quarantine primitive: break
// removes a lease only while it names the given owner, and treats
// missing or foreign leases as a quiet no-op.
func TestBreakLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000.lease")

	// Missing file: nothing to break.
	if ok, err := BreakLease(path, "w1"); ok || err != nil {
		t.Fatalf("break of missing lease = (%v, %v), want (false, nil)", ok, err)
	}

	l, err := AcquireLease(path, 0, "w1", time.Hour)
	if err != nil || l == nil {
		t.Fatalf("acquire: %v %v", l, err)
	}

	// Wrong owner: the lease survives.
	if ok, err := BreakLease(path, "w2"); ok || err != nil {
		t.Fatalf("foreign break = (%v, %v), want (false, nil)", ok, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("foreign break removed the lease: %v", err)
	}

	// Right owner: removed; the shard is immediately claimable again
	// (as a fresh claim — the file is simply gone, no epoch to bump).
	if ok, err := BreakLease(path, "w1"); !ok || err != nil {
		t.Fatalf("owner break = (%v, %v), want (true, nil)", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("lease file still present after break: %v", err)
	}
	l2, err := AcquireLease(path, 0, "w3", time.Hour)
	if err != nil || l2 == nil {
		t.Fatalf("reclaim after break: %v %v", l2, err)
	}
}
