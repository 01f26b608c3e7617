// Package cluster turns a set of independently-started refschedd
// processes into one serving surface. Membership is static: every node
// is launched with the same -peers list and computes the same
// consistent-hash ring, so any node can answer "who owns this key"
// without a coordination service. Three mechanisms build on that
// agreement:
//
//   - request routing: a job or figure GET arriving at a non-owner is
//     forwarded to the first *alive* node in the key's ownership order,
//     concentrating cache hits and single-flight dedup on one node;
//   - cross-shard cache fallback: a node about to simulate first asks
//     the key's owner (one GET, never a broadcast) whether it already
//     holds the rendered result;
//   - cell fan-out: the owner of a sweep dispatches its independent
//     simulation cells to peers with spare capacity and merges the
//     reports byte-identically, re-running any failed or unreachable
//     peer's cells locally so a degraded cluster still completes.
//
// Health is probed actively (/healthz with consecutive-failure
// hysteresis) and passively (forwarding errors count against the peer),
// and every placement decision consults liveness, so a down node is
// simply skipped in its keys' preference order until it recovers.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Member is one statically-configured cluster node.
type Member struct {
	ID   string // unique node name, as given to -node-id
	Addr string // host:port of its HTTP listener
}

// ParsePeers parses a -peers flag value: comma-separated id=host:port
// entries naming the entire cluster, including the local node.
func ParsePeers(spec string) ([]Member, error) {
	var out []Member
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=host:port)", part)
		}
		if strings.ContainsAny(id, "=,/ ") {
			return nil, fmt.Errorf("cluster: bad peer id %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: -peers %q names no members", spec)
	}
	return out, nil
}

// Config configures one node's view of the cluster.
type Config struct {
	// NodeID names the local node; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, including the local node.
	Peers []Member
	// FanoutPerPeer caps concurrently dispatched remote cells per peer
	// (<= 0 disables cell fan-out; routing and cache fallback still
	// work).
	FanoutPerPeer int
	// ProbeInterval is the /healthz probing period (0 = 500ms).
	ProbeInterval time.Duration
}

// The health hysteresis: a peer is marked down after downAfter
// consecutive failed probes or forwards, and a down peer is trusted
// again after upAfter consecutive successes.
const downAfter, upAfter = 2, 2

// peer is the tracked state of one remote member.
type peer struct {
	id   string
	addr string

	mu          sync.Mutex
	up          bool
	consecFail  int
	consecOK    int
	probes      uint64
	failures    uint64
	transitions uint64

	forwarded atomic.Uint64 // jobs/requests forwarded to this peer
	cellsTo   atomic.Uint64 // fan-out cells dispatched to this peer
	slots     chan int      // fan-out slot tokens (lane indices)
	laneBase  int           // global lane offset for timeline tids
}

// alive reports the hysteresis state.
func (p *peer) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

// observe feeds one probe or passive forwarding outcome into the
// hysteresis state machine.
func (p *peer) observe(ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes++
	if ok {
		p.consecOK++
		p.consecFail = 0
		if !p.up && p.consecOK >= upAfter {
			p.up = true
			p.transitions++
		}
		return
	}
	p.failures++
	p.consecFail++
	p.consecOK = 0
	if p.up && p.consecFail >= downAfter {
		p.up = false
		p.transitions++
	}
}

// Cluster is one node's membership, ring, health, and fan-out state.
// A nil *Cluster is valid and means "clustering disabled": Enabled
// returns false and the service skips every cluster code path, keeping
// single-node behavior byte-identical.
type Cluster struct {
	cfg    Config
	self   Member
	ring   *ring
	peers  map[string]*peer // remote members only
	order  []string         // remote member ids, membership order
	client *http.Client     // forwards and cell dispatch (no global timeout; callers bound via ctx)
	probe  *http.Client     // health probes (short timeout)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Counters the service surfaces in /statsz and /metricsz. The
	// forwarding/cache ones are incremented by the service (it owns
	// those code paths); the fan-out ones by this package.
	JobsForwarded     atomic.Uint64 // requests this node forwarded to an owner
	JobsReceived      atomic.Uint64 // forwarded requests this node handled
	ForwardFallbacks  atomic.Uint64 // forwards that failed over to local handling
	RemoteCacheHits   atomic.Uint64 // local misses answered by a peer's cache
	RemoteCacheMisses atomic.Uint64 // cross-shard lookups that found nothing
	CacheServed       atomic.Uint64 // /v1/cache lookups this node answered with a hit
	CellsDispatched   atomic.Uint64 // fan-out cells sent to peers
	CellsReclaimed    atomic.Uint64 // dispatched cells re-run locally after peer failure
	CellsResumed      atomic.Uint64 // reclaimed cells whose peer-shipped snapshot was filed for the local run to resume
	CellsExecuted     atomic.Uint64 // /v1/cells requests this node simulated
}

// New validates cfg and builds the node's cluster state. Probing does
// not start until Start.
func New(cfg Config) (*Cluster, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: -node-id is required with -peers")
	}
	c := &Cluster{
		cfg:   cfg,
		peers: map[string]*peer{},
		stop:  make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
		probe: &http.Client{Timeout: 2 * time.Second},
	}
	ids := make([]string, 0, len(cfg.Peers))
	for _, m := range cfg.Peers {
		ids = append(ids, m.ID)
		if m.ID == cfg.NodeID {
			c.self = m
			continue
		}
		p := &peer{id: m.ID, addr: m.Addr, up: true, laneBase: len(c.order) * max(cfg.FanoutPerPeer, 0)}
		if cfg.FanoutPerPeer > 0 {
			p.slots = make(chan int, cfg.FanoutPerPeer)
			for s := 0; s < cfg.FanoutPerPeer; s++ {
				p.slots <- s
			}
		}
		c.peers[m.ID] = p
		c.order = append(c.order, m.ID)
	}
	if c.self.ID == "" {
		return nil, fmt.Errorf("cluster: -node-id %q is not in -peers (members: %v)", cfg.NodeID, ids)
	}
	c.ring = newRing(ids)
	return c, nil
}

// Enabled reports whether clustering is configured; safe on nil.
func (c *Cluster) Enabled() bool { return c != nil }

// FanoutEnabled reports whether cell fan-out is configured: a positive
// per-peer cap and at least one remote member. Safe on nil.
func (c *Cluster) FanoutEnabled() bool {
	return c != nil && c.cfg.FanoutPerPeer > 0 && len(c.order) > 0
}

// Self returns the local member.
func (c *Cluster) Self() Member { return c.self }

// Members returns the full membership in configuration order.
func (c *Cluster) Members() []Member { return append([]Member(nil), c.cfg.Peers...) }

// Owner returns the ring owner of key, ignoring liveness.
func (c *Cluster) Owner(key string) string { return c.ring.owner(key) }

// RouteOwner resolves where a request for key should be handled: the
// first alive node in the key's ownership order. It returns the local
// member (and self=true) when that node is this one — or when every
// remote candidate ahead of it is down, because handling locally is
// always better than refusing.
func (c *Cluster) RouteOwner(key string) (m Member, self bool) {
	for _, id := range c.ring.preference(key) {
		if id == c.self.ID {
			return c.self, true
		}
		if p := c.peers[id]; p != nil && p.alive() {
			return Member{ID: p.id, Addr: p.addr}, false
		}
	}
	return c.self, true
}

// FallbackOwner resolves the peer a local cache miss for key should
// consult: the first alive node in the ownership order that is not this
// node. This covers both directions of degradation — when this node is
// covering for a down owner it asks the owner's successor chain, and
// when this node is the owner freshly restarted with a cold cache it
// asks whichever successor covered while it was away. ok is false when
// no remote candidate is alive.
func (c *Cluster) FallbackOwner(key string) (Member, bool) {
	for _, id := range c.ring.preference(key) {
		if id == c.self.ID {
			continue
		}
		if p := c.peers[id]; p != nil && p.alive() {
			return Member{ID: p.id, Addr: p.addr}, true
		}
	}
	return Member{}, false
}

// Alive reports whether id is this node or a remote peer currently
// considered up.
func (c *Cluster) Alive(id string) bool {
	if id == c.self.ID {
		return true
	}
	p := c.peers[id]
	return p != nil && p.alive()
}

// ObservePeer feeds a passive health observation (a forwarding success
// or transport failure) into id's hysteresis state.
func (c *Cluster) ObservePeer(id string, ok bool) {
	if p := c.peers[id]; p != nil {
		p.observe(ok)
	}
}

// MarkForwarded counts a request forwarded to peer id.
func (c *Cluster) MarkForwarded(id string) {
	c.JobsForwarded.Add(1)
	if p := c.peers[id]; p != nil {
		p.forwarded.Add(1)
	}
}

// Client returns the HTTP client used for forwarding and cell
// dispatch. It has no global timeout; callers bound requests with a
// context.
func (c *Cluster) Client() *http.Client { return c.client }

// Start launches the health prober. Stop terminates it.
func (c *Cluster) Start() {
	if c == nil || len(c.peers) == 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop terminates probing and waits for the prober to exit. Safe on
// nil and safe to call more than once.
func (c *Cluster) Stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// probeAll probes every remote peer's /healthz concurrently and feeds
// the results into the hysteresis state.
func (c *Cluster) probeAll() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			p.observe(c.probeOne(p))
		}(p)
	}
	wg.Wait()
}

// probeOne performs a single /healthz round-trip. A draining node
// answers 503 and is counted down, which is exactly right: it must stop
// receiving forwards before it exits.
func (c *Cluster) probeOne(p *peer) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.probe.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.probe.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// PeerStatus is one remote member's health and traffic snapshot.
type PeerStatus struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Up          bool   `json:"up"`
	Probes      uint64 `json:"probes"`
	Failures    uint64 `json:"failures"`
	Transitions uint64 `json:"transitions"`
	Forwarded   uint64 `json:"forwarded_to"`
	CellsTo     uint64 `json:"cells_dispatched_to"`
	FreeSlots   int    `json:"free_fanout_slots"`
}

// Stats is the cluster block surfaced in /statsz.
type Stats struct {
	NodeID            string       `json:"node_id"`
	Peers             []PeerStatus `json:"peers"`
	JobsForwarded     uint64       `json:"jobs_forwarded"`
	JobsReceived      uint64       `json:"jobs_received"`
	ForwardFallbacks  uint64       `json:"forward_fallbacks"`
	RemoteCacheHits   uint64       `json:"remote_cache_hits"`
	RemoteCacheMisses uint64       `json:"remote_cache_misses"`
	CacheServed       uint64       `json:"cache_lookups_served"`
	CellsDispatched   uint64       `json:"fanout_cells_dispatched"`
	CellsReclaimed    uint64       `json:"fanout_cells_reclaimed"`
	CellsResumed      uint64       `json:"fanout_cells_resumed"`
	CellsExecuted     uint64       `json:"remote_cells_executed"`
}

// Snapshot returns the node's current cluster stats.
func (c *Cluster) Snapshot() Stats {
	s := Stats{
		NodeID:            c.self.ID,
		JobsForwarded:     c.JobsForwarded.Load(),
		JobsReceived:      c.JobsReceived.Load(),
		ForwardFallbacks:  c.ForwardFallbacks.Load(),
		RemoteCacheHits:   c.RemoteCacheHits.Load(),
		RemoteCacheMisses: c.RemoteCacheMisses.Load(),
		CacheServed:       c.CacheServed.Load(),
		CellsDispatched:   c.CellsDispatched.Load(),
		CellsReclaimed:    c.CellsReclaimed.Load(),
		CellsResumed:      c.CellsResumed.Load(),
		CellsExecuted:     c.CellsExecuted.Load(),
	}
	ids := append([]string(nil), c.order...)
	sort.Strings(ids)
	for _, id := range ids {
		p := c.peers[id]
		p.mu.Lock()
		ps := PeerStatus{
			ID: p.id, Addr: p.addr, Up: p.up,
			Probes: p.probes, Failures: p.failures, Transitions: p.transitions,
		}
		p.mu.Unlock()
		ps.Forwarded = p.forwarded.Load()
		ps.CellsTo = p.cellsTo.Load()
		ps.FreeSlots = len(p.slots)
		s.Peers = append(s.Peers, ps)
	}
	return s
}
