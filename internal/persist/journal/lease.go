package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/persist"
)

// Shard leases: the claim layer of the multi-process sweep. One lease
// file per shard names the worker that owns it and the wall-clock
// instant its claim expires; the owner heartbeats by rewriting the
// file with a pushed-out deadline, and a worker that finds an expired
// lease steals it with a bumped epoch (work-stealing after a crash).
//
// The lease is a liveness heuristic, not the safety argument. Safety
// rests on two properties beneath it:
//
//   - the shard's checkpoint WAL is flock-guarded (see Open), so on
//     one machine a stale owner that is merely paused still blocks a
//     stealer from appending to the same journal;
//   - every work item is a deterministic function of its name, and
//     checkpoint replay is last-wins over identical values, so even a
//     doubly-processed shard merges to byte-identical output. A lost
//     lease costs duplicated wall-clock, never a wrong report.
//
// Acquisition is an atomic create: the lease JSON is written to a
// unique temp file and hard-linked into place — link(2) fails if the
// path exists, which is the compare-and-swap. Removing a file is not
// a compare-and-swap, so a steal, which must remove the expired lease
// before it can link its own, runs under a sidecar lock: an exclusive
// flock on <lease>.steal, taken without waiting and held across a
// re-read, the remove, the link and the verifying re-read. A thief
// that finds the lock held backs off, and the holder removes the file
// only while it still holds exactly the stale record the thief read,
// so it never removes a lease another thief has installed, nor one the
// owner renewed before that re-read. At most one thief confirms each
// epoch. The lock dies with its process, so a thief killed mid-steal
// blocks no one. Fresh claims take the same lock, so a claim made
// after the owner's Release cannot be removed by a steal already under
// way.

// leaseRecord is the JSON body of a lease file.
type leaseRecord struct {
	Shard   int    `json:"shard"`
	Owner   string `json:"owner"`
	Epoch   int64  `json:"epoch"`
	Expires int64  `json:"expires_unix_ms"`
}

func (r leaseRecord) expired(now time.Time) bool {
	return now.UnixMilli() > r.Expires
}

// Lease is a held shard claim. Renew it more often than its TTL; a
// renewal that discovers the lease was stolen returns ErrLeaseLost
// and the holder must abandon the shard.
type Lease struct {
	path  string
	ttl   time.Duration
	Shard int
	Owner string
	Epoch int64
}

// ErrLeaseLost is returned by Renew and Release when the lease file
// no longer names this holder: the claim expired and another worker
// stole it. The holder must stop journaling for the shard.
var ErrLeaseLost = fmt.Errorf("journal: lease lost to another worker")

// AcquireLease claims the shard lease at path for owner with the
// given ttl. It returns (nil, nil) when the shard is validly held by
// someone else — not an error, just unavailable; the worker moves on.
// An expired lease is stolen with a bumped epoch.
func AcquireLease(path string, shard int, owner string, ttl time.Duration) (*Lease, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("journal: lease ttl must be positive")
	}
	now := time.Now()
	cur, err := readLease(path)
	switch {
	case err == nil:
		if cur.Owner == owner && !cur.expired(now) {
			// Our own live claim (e.g. a retry after a partial
			// failure): keep it, same epoch.
			return &Lease{path: path, ttl: ttl, Shard: shard, Owner: owner, Epoch: cur.Epoch}, nil
		}
		if !cur.expired(now) {
			return nil, nil // validly held elsewhere
		}
	case os.IsNotExist(err):
		// Unclaimed.
	default:
		// Unreadable lease file (torn write, corrupt bytes): treat as
		// expired damage — remove and claim over it.
	}
	return claim(path, shard, owner, now, ttl, cur, err), nil
}

// claimRaceHook, when non-nil, runs between AcquireLease's read of the
// lease and the claim that acts on it: for a steal, between the read
// that found the lease stale and its removal. Tests run a second thief
// here to pin the one-thief-per-epoch contract; production never sets
// it.
var claimRaceHook func()

// claim takes path under the sidecar lock. seen and seenErr are the
// caller's read: a missing file, an unreadable one, or an expired
// lease to steal. The file must still read the same once the lock is
// held; otherwise another worker got there first and claim backs off.
// It returns nil when the claim did not become ours.
func claim(path string, shard int, owner string, now time.Time, ttl time.Duration,
	seen leaseRecord, seenErr error) *Lease {
	if claimRaceHook != nil {
		claimRaceHook()
	}
	unlock, err := lockPath(path + ".steal")
	if err != nil {
		return nil // another thief is mid-steal: unavailable this round
	}
	defer unlock()
	if cur, err := readLease(path); !sameRead(seen, seenErr, cur, err) {
		return nil
	}
	epoch := int64(1)
	if seenErr == nil {
		epoch = seen.Epoch + 1
	}
	if !os.IsNotExist(seenErr) {
		os.Remove(path)
	}
	rec := leaseRecord{Shard: shard, Owner: owner, Epoch: epoch, Expires: now.Add(ttl).UnixMilli()}
	if err := linkLease(path, rec); err != nil {
		return nil // lost the race; unavailable this round
	}
	// Verify: the lock orders thieves and claimers, but Release and
	// BreakLease remove without it. Only a confirmed read of our own
	// record makes the claim real.
	got, err := readLease(path)
	if err != nil || got.Owner != owner || got.Epoch != epoch {
		return nil
	}
	return &Lease{path: path, ttl: ttl, Shard: shard, Owner: owner, Epoch: epoch}
}

// sameRead reports whether two reads of a lease file found it in the
// same state: both missing, both unreadable, or the same record.
func sameRead(a leaseRecord, aErr error, b leaseRecord, bErr error) bool {
	if aErr == nil || bErr == nil {
		return aErr == nil && bErr == nil && a == b
	}
	return os.IsNotExist(aErr) == os.IsNotExist(bErr)
}

// lockPath takes the exclusive flock of the file at path, creating it,
// without waiting: ErrLocked means another holder, in this process or
// another, has it. unlock closes the file, which releases the lock.
func lockPath(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() { f.Close() }, nil
}

// renewRaceHook, when non-nil, runs between Renew's write and its
// verifying re-read. Tests interleave a steal here to pin the
// fencing contract; production never sets it.
var renewRaceHook func()

// Renew pushes the lease deadline out by its TTL. ErrLeaseLost means
// another worker stole the claim; the holder must abandon the shard
// immediately.
//
// The write is verified by re-reading: the pre-write ownership check
// races against a stealer's remove+link cycle (check passes, stealer
// replaces the file, our rewrite clobbers its claim), and an
// unverified rewrite would leave BOTH workers believing they hold the
// shard. Re-reading after the write closes the window to the rename
// itself: a heartbeat that lands over a stolen lease still comes back
// ErrLeaseLost on the same call, so the fenced worker finds out now —
// not one full TTL later.
func (l *Lease) Renew() error {
	cur, err := readLease(l.path)
	if err != nil || cur.Owner != l.Owner || cur.Epoch != l.Epoch {
		return ErrLeaseLost
	}
	rec := leaseRecord{Shard: l.Shard, Owner: l.Owner, Epoch: l.Epoch,
		Expires: time.Now().Add(l.ttl).UnixMilli()}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := persist.AtomicWriteFile(l.path, data, 0o644); err != nil {
		return err
	}
	if renewRaceHook != nil {
		renewRaceHook()
	}
	got, err := readLease(l.path)
	if err != nil || got.Owner != l.Owner || got.Epoch != l.Epoch || got.Expires != rec.Expires {
		return ErrLeaseLost
	}
	return nil
}

// Release drops the claim by removing the lease file, but only while
// it still names this holder — releasing a stolen lease would free a
// shard another worker is processing.
func (l *Lease) Release() error {
	cur, err := readLease(l.path)
	if err != nil || cur.Owner != l.Owner || cur.Epoch != l.Epoch {
		return ErrLeaseLost
	}
	return os.Remove(l.path)
}

// BreakLease removes the lease at path if (and only if) it currently
// names owner. It is the supervisor's quarantine tool: when a worker
// is declared crash-looping and will not be restarted, its claims
// should free immediately instead of dribbling out over one TTL each.
// The epoch is deliberately not checked — the supervisor knows who it
// spawned, not which epoch the worker's claims reached.
//
// Returns true when a lease was removed. A missing file, an
// unreadable file, or a lease held by someone else all return false
// with a nil error: none of them is a failure of the break itself.
func BreakLease(path, owner string) (bool, error) {
	cur, err := readLease(path)
	if err != nil || cur.Owner != owner {
		return false, nil
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return true, nil
}

// readLease parses the lease file at path. A record without an owner
// or with an epoch below 1 is damage, as unreadable bytes are: no
// claim writes one, and AcquireLease claims over it.
func readLease(path string) (leaseRecord, error) {
	var rec leaseRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("journal: lease %s: %w", path, err)
	}
	if rec.Owner == "" {
		return rec, fmt.Errorf("journal: lease %s: no owner", path)
	}
	if rec.Epoch < 1 {
		return rec, fmt.Errorf("journal: lease %s: epoch %d below 1", path, rec.Epoch)
	}
	return rec, nil
}

// linkLease writes rec to a unique temp file and hard-links it into
// place — the atomic create-if-absent that makes claims race-safe.
func linkLease(path string, rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".claim*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Link(tmpName, path)
}
