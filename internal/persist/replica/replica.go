// Package replica removes the artifact store as a single point of
// failure: several sraastore processes serve the same content-
// addressed record set, one as primary (accepting writes) and the
// rest as replicas (serving reads, redirecting writes), with
// automatic promotion when the primary dies.
//
// The design leans on the store being content-addressed and
// append-only, which makes replication embarrassingly safe:
//
//   - every node asynchronously PULLS records from every reachable
//     peer — Keys diff, then batched fetch over the same validated
//     wire codec the sweep clients use — so a record acked anywhere
//     eventually exists everywhere, and a record that fails CRC or
//     self-naming validation is dropped by the puller, never
//     installed (no corrupt record can be promoted);
//   - roles carry an epoch number, persisted beside the store in
//     role.json. Promotion bumps the epoch; a higher epoch always
//     wins. A stale primary that reconnects and sees a peer claiming
//     primary at a higher epoch fences itself: it demotes to replica
//     on the spot and starts redirecting writes. Its acked puts are
//     safe — they are on its disk, and the new primary's pull loop
//     picks them up (pull-from-all is what makes "no acked put lost
//     across promotion" hold without synchronous replication);
//   - a replica that has not seen the primary for FailoverAfter
//     promotes itself — but only when it holds the smallest
//     advertised URL among the live candidates, so a fleet of
//     replicas losing the same primary elects one successor instead
//     of several. If a partition does yield two equal-epoch
//     primaries anyway, the same total order on URLs decides who
//     fences on reconnect: deterministic, no coin flips.
//
// Split-brain windows therefore cost at worst some writes landing on
// a doomed primary's disk — which the pull loop then propagates —
// and never diverging histories: two records under one key are
// impossible by content addressing.
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/persist/remote"
)

// Role is a node's replication role.
type Role string

const (
	RolePrimary Role = "primary"
	RoleReplica Role = "replica"
)

// roleFile is the name of the persisted role state beside the store.
const roleFile = "role.json"

// roleState is the durable half of a node's identity: survive a
// restart without forgetting you were fenced.
type roleState struct {
	Role  Role  `json:"role"`
	Epoch int64 `json:"epoch"`
}

// RoleInfo is the wire form of GET /role — what peers see.
type RoleInfo struct {
	Role  Role  `json:"role"`
	Epoch int64 `json:"epoch"`
	// Self is this node's advertised URL.
	Self string `json:"self"`
	// Primary is the URL this node believes accepts writes.
	Primary string `json:"primary"`
	// ReadOnly mirrors the store's disk-full degradation so peers and
	// operators see it in the same place as the role.
	ReadOnly bool `json:"read_only"`
	Keys     int  `json:"keys"`
}

// Config wires one replication node.
type Config struct {
	// Store is the node's artifact store.
	Store *persist.Store
	// Dir is where role.json persists; defaults to Store.Dir().
	Dir string
	// Self is this node's advertised URL, e.g. "http://10.0.0.1:8178".
	// It must appear in the other nodes' Peers lists spelled exactly
	// the same way: the URL is also the tie-break key.
	Self string
	// Peers are the advertised URLs of every OTHER node.
	Peers []string
	// Role is the starting role when no role.json exists yet.
	Role Role
	// ReplicateInterval paces the pull-sync loop; default 500ms.
	ReplicateInterval time.Duration
	// FailoverAfter is how long a replica tolerates not seeing the
	// primary before promoting itself; default 5s. Must comfortably
	// exceed ReplicateInterval.
	FailoverAfter time.Duration
	// RequestTimeout bounds each peer request; default 2s.
	RequestTimeout time.Duration
	// Transport overrides the peer HTTP transport (tests inject
	// partitions here).
	Transport http.RoundTripper
	// Logf, when non-nil, receives role-transition log lines.
	Logf func(format string, args ...any)
}

func (c Config) filled() Config {
	if c.Dir == "" && c.Store != nil {
		c.Dir = c.Store.Dir()
	}
	if c.Role == "" {
		c.Role = RoleReplica
	}
	if c.ReplicateInterval <= 0 {
		c.ReplicateInterval = 500 * time.Millisecond
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats counts a node's replication activity.
type Stats struct {
	Role       Role
	Epoch      int64
	Primary    string
	Pulls      int64 // sync rounds completed
	Pulled     int64 // records installed from peers
	PullErrors int64 // unreachable peers / failed fetches
	Promotions int64 // self-promotions to primary
	Fenced     int64 // self-demotions on seeing a higher/winning epoch
	Redirected int64 // puts answered 421 while replica
}

// StatsLine renders the counters in the stack's one-line style.
func (s Stats) StatsLine() string {
	return fmt.Sprintf("replica[role=%s epoch=%d primary=%s pulls=%d pulled=%d pull-errors=%d promotions=%d fenced=%d redirected=%d]",
		s.Role, s.Epoch, s.Primary, s.Pulls, s.Pulled, s.PullErrors,
		s.Promotions, s.Fenced, s.Redirected)
}

// Node is one member of a replicated store fleet. Wrap the store
// server's handler with Middleware and run the sync loop with Run.
type Node struct {
	cfg   Config
	peers map[string]*remote.Client // advertised URL -> pull client
	hc    *http.Client

	mu              sync.Mutex
	role            Role
	epoch           int64
	primary         string // believed-writable URL ("" = unknown)
	lastPrimarySeen time.Time
	st              Stats
}

// Open loads (or initializes) the node's persisted role state. A
// restart resumes at the persisted role and epoch — a node fenced at
// epoch 3 must not reboot believing it is the epoch-1 primary.
func Open(cfg Config) (*Node, error) {
	cfg = cfg.filled()
	if cfg.Store == nil {
		return nil, fmt.Errorf("replica: config needs a store")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("replica: config needs an advertised self URL")
	}
	n := &Node{
		cfg:   cfg,
		peers: map[string]*remote.Client{},
		hc:    &http.Client{Transport: cfg.Transport, Timeout: cfg.RequestTimeout},
		role:  cfg.Role,
		epoch: 1,
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self || p == "" {
			continue
		}
		n.peers[p] = remote.NewClient(remote.Options{
			Endpoints:      []string{p},
			RequestTimeout: cfg.RequestTimeout,
			Retries:        1,
			Backoff:        10 * time.Millisecond,
			Transport:      cfg.Transport,
		})
	}
	if data, err := os.ReadFile(n.rolePath()); err == nil {
		if rs, ok := decodeRole(data); ok {
			n.role, n.epoch = rs.Role, rs.Epoch
		}
		// An unreadable or damaged role file falls back to the
		// configured role at epoch 1: the epoch protocol corrects a
		// too-humble restart, and a too-proud one fences on first
		// contact with a higher epoch.
	}
	if n.role == RolePrimary {
		n.primary = cfg.Self
	}
	n.lastPrimarySeen = time.Now() // grace period before any promotion
	if err := n.persistLocked(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Node) rolePath() string { return filepath.Join(n.cfg.Dir, roleFile) }

// decodeRole parses the bytes of a role file. It accepts only a known
// role at an epoch of at least 1; anything else is damage.
func decodeRole(data []byte) (roleState, bool) {
	var rs roleState
	if json.Unmarshal(data, &rs) != nil || rs.Epoch < 1 || (rs.Role != RolePrimary && rs.Role != RoleReplica) {
		return roleState{}, false
	}
	return rs, true
}

// persistLocked writes role.json; callers hold n.mu (or own the node
// exclusively, as Open does).
func (n *Node) persistLocked() error {
	data, err := json.Marshal(roleState{Role: n.role, Epoch: n.epoch})
	if err != nil {
		return fmt.Errorf("replica: encode role: %w", err)
	}
	if err := persist.AtomicWriteFile(n.rolePath(), data, 0o644); err != nil {
		return fmt.Errorf("replica: persist role: %w", err)
	}
	return nil
}

// Role returns the node's current role and epoch.
func (n *Node) Role() (Role, int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch
}

// Primary returns the URL the node currently believes accepts writes.
func (n *Node) Primary() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// Stats snapshots the replication counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.st
	st.Role, st.Epoch, st.Primary = n.role, n.epoch, n.primary
	return st
}

// info renders the /role response.
func (n *Node) info() RoleInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return RoleInfo{
		Role: n.role, Epoch: n.epoch,
		Self: n.cfg.Self, Primary: n.primary,
		ReadOnly: n.cfg.Store.ReadOnly(),
		Keys:     n.cfg.Store.Len(),
	}
}

// Middleware wraps the store server's handler with the role
// protocol: GET /role answers the node's identity, and while the
// node is a replica every artifact PUT is refused with 421 plus an
// X-Sraa-Primary hint instead of being installed. Reads always pass
// through — a replica is a fully readable store.
func (n *Node) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == remote.PathRole {
			body, err := json.Marshal(n.info())
			if err != nil {
				http.Error(w, "role encoding failed", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/art/") {
			n.mu.Lock()
			isReplica := n.role == RoleReplica
			primary := n.primary
			if isReplica {
				n.st.Redirected++
			}
			n.mu.Unlock()
			if isReplica {
				if primary != "" && primary != n.cfg.Self {
					w.Header().Set(remote.HeaderPrimary, primary)
				}
				http.Error(w, "replica: writes go to the primary", http.StatusMisdirectedRequest)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// Run drives the node until ctx is canceled: every ReplicateInterval
// it observes its peers' roles (fencing or promoting as the epochs
// demand) and pulls records it is missing. Run never returns an
// error — a fully partitioned node just keeps serving what it has.
func (n *Node) Run(ctx context.Context) {
	t := time.NewTicker(n.cfg.ReplicateInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.Sync()
		}
	}
}

// Sync runs one observation + pull round. Exported so tests (and the
// chaos harness) can step the protocol deterministically.
func (n *Node) Sync() {
	infos := n.observe()
	n.settleRoles(infos)
	n.pull()
	n.mu.Lock()
	n.st.Pulls++
	n.mu.Unlock()
}

// observe polls every peer's /role. Unreachable peers are simply
// absent from the result.
func (n *Node) observe() map[string]RoleInfo {
	infos := map[string]RoleInfo{}
	for url := range n.peers {
		info, err := n.fetchRole(url)
		if err != nil {
			n.mu.Lock()
			n.st.PullErrors++
			n.mu.Unlock()
			continue
		}
		infos[url] = info
	}
	return infos
}

func (n *Node) fetchRole(url string) (RoleInfo, error) {
	resp, err := n.hc.Get(url + remote.PathRole)
	if err != nil {
		return RoleInfo{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil || resp.StatusCode != http.StatusOK {
		return RoleInfo{}, fmt.Errorf("replica: %s%s: status %d err %v", url, remote.PathRole, resp.StatusCode, err)
	}
	var info RoleInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return RoleInfo{}, err
	}
	if info.Role != RolePrimary && info.Role != RoleReplica {
		return RoleInfo{}, fmt.Errorf("replica: %s reports unknown role %q", url, info.Role)
	}
	return info, nil
}

// settleRoles applies the epoch protocol to one round of
// observations: fence below a higher epoch, tie-break equal-epoch
// primaries by URL order, track primary liveness, and promote when
// the primary has been gone long enough and this node is the elected
// successor.
func (n *Node) settleRoles(infos map[string]RoleInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()

	for url, info := range infos {
		if info.Role != RolePrimary {
			continue
		}
		switch {
		case info.Epoch > n.epoch:
			// A later epoch always wins, whatever we thought we were.
			if n.role == RolePrimary {
				n.st.Fenced++
				n.cfg.Logf("replica: %s fencing: peer %s is primary at epoch %d > ours %d", n.cfg.Self, url, info.Epoch, n.epoch)
			}
			n.role, n.epoch, n.primary = RoleReplica, info.Epoch, url
			n.lastPrimarySeen = time.Now()
			n.persistLoudLocked()
		case info.Epoch == n.epoch:
			if n.role == RolePrimary && url != n.cfg.Self {
				// Equal-epoch split brain: the smaller URL keeps the
				// crown; the total order makes both sides agree.
				if n.cfg.Self > url {
					n.st.Fenced++
					n.cfg.Logf("replica: %s fencing: equal epoch %d, peer %s wins tie-break", n.cfg.Self, n.epoch, url)
					n.role, n.primary = RoleReplica, url
					n.lastPrimarySeen = time.Now()
					n.persistLoudLocked()
				}
			} else if n.role == RoleReplica {
				n.primary = url
				n.lastPrimarySeen = time.Now()
			}
		}
	}
	if n.role == RolePrimary {
		n.lastPrimarySeen = time.Now()
		return
	}

	// Promotion: the primary has been invisible for the full failover
	// window AND this node is the smallest-URL live candidate.
	if time.Since(n.lastPrimarySeen) < n.cfg.FailoverAfter {
		return
	}
	candidates := []string{n.cfg.Self}
	for url, info := range infos {
		if url != n.primary && info.Role == RoleReplica {
			candidates = append(candidates, url)
		}
	}
	sort.Strings(candidates)
	if candidates[0] != n.cfg.Self {
		return // a smaller live replica will take it
	}
	n.epoch++
	n.role = RolePrimary
	n.primary = n.cfg.Self
	n.lastPrimarySeen = time.Now()
	n.st.Promotions++
	n.cfg.Logf("replica: %s promoting to primary at epoch %d (primary unseen for %v)", n.cfg.Self, n.epoch, n.cfg.FailoverAfter)
	n.persistLoudLocked()
}

// persistLoudLocked persists the role and logs (rather than fails)
// when the disk refuses: a node that cannot persist its fencing still
// obeys it in memory for the rest of its life, and the epoch protocol
// re-fences it after a restart.
func (n *Node) persistLoudLocked() {
	if err := n.persistLocked(); err != nil {
		n.cfg.Logf("replica: WARNING: %v", err)
	}
}

// pull fetches records this node is missing from EVERY reachable
// peer, not just the primary. That breadth is the durability story:
// an acked put fenced away on a stale primary's disk still propagates
// to the new primary here. Every record is CRC- and key-validated by
// the remote client before it is installed.
func (n *Node) pull() {
	mine := map[string]bool{}
	for _, k := range n.cfg.Store.Keys() {
		mine[k] = true
	}
	for url, client := range n.peers {
		theirs, ok := client.Keys()
		if !ok {
			n.mu.Lock()
			n.st.PullErrors++
			n.mu.Unlock()
			continue
		}
		var missing []string
		for _, k := range theirs {
			if !mine[k] {
				missing = append(missing, k)
			}
		}
		if len(missing) == 0 {
			continue
		}
		got := client.GetBatch(missing)
		installed := 0
		for k, a := range got {
			if err := n.cfg.Store.Put(k, a); err != nil {
				// Disk-full or write failure: the record stays pullable
				// from the peer; nothing is lost, durability here is
				// degraded and the store's own stats shout about it.
				n.mu.Lock()
				n.st.PullErrors++
				n.mu.Unlock()
				continue
			}
			mine[k] = true
			installed++
		}
		if installed > 0 {
			n.mu.Lock()
			n.st.Pulled += int64(installed)
			n.mu.Unlock()
			n.cfg.Logf("replica: %s pulled %d records from %s", n.cfg.Self, installed, url)
		}
	}
}
