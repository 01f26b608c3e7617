package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refsched/internal/harness"
)

// TestRingDeterministicAndComplete: every node given the same member
// list computes identical placement, and the preference walk names each
// member exactly once, owner first.
func TestRingDeterministicAndComplete(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r1 := newRing(nodes)
	r2 := newRing(append([]string(nil), nodes...))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fig|fig10|key-%d", i)
		if r1.owner(key) != r2.owner(key) {
			t.Fatalf("rings disagree on owner of %q", key)
		}
		pref := r1.preference(key)
		if len(pref) != len(nodes) {
			t.Fatalf("preference(%q) = %v, want all %d members", key, pref, len(nodes))
		}
		if pref[0] != r1.owner(key) {
			t.Fatalf("preference(%q) starts with %s, owner is %s", key, pref[0], r1.owner(key))
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("preference(%q) repeats %s", key, n)
			}
			seen[n] = true
		}
	}
}

// TestRingDistribution: 128 virtual nodes keep the key split across a
// 3-node ring within loose bounds — no node starves or hoards.
func TestRingDistribution(t *testing.T) {
	r := newRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("cell|WL-%d|%dGb|seed=%d", i%8, 8*(i%4+1), i))]++
	}
	for n, got := range counts {
		frac := float64(got) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("node %s owns %.1f%% of keys; split %v", n, 100*frac, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own keys: %v", len(counts), counts)
	}
}

// TestParsePeers covers the accepted grammar and each rejection.
func TestParsePeers(t *testing.T) {
	ms, err := ParsePeers("a=127.0.0.1:1, b=127.0.0.1:2 ,c=host:3,")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	if len(ms) != 3 || ms[0].ID != "a" || ms[1].Addr != "127.0.0.1:2" || ms[2].Addr != "host:3" {
		t.Fatalf("members = %+v", ms)
	}
	for _, bad := range []string{"", "a", "=1:2", "a=", "a=1:2,a=1:3", "a b=1:2"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// TestNewValidation: the local node must appear in the member list.
func TestNewValidation(t *testing.T) {
	peers := []Member{{ID: "a", Addr: "1:1"}, {ID: "b", Addr: "1:2"}}
	if _, err := New(Config{NodeID: "z", Peers: peers}); err == nil {
		t.Fatal("New accepted a node id outside the member list")
	}
	if _, err := New(Config{Peers: peers}); err == nil {
		t.Fatal("New accepted an empty node id")
	}
	c, err := New(Config{NodeID: "a", Peers: peers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !c.Enabled() || c.FanoutEnabled() {
		t.Fatalf("Enabled=%t FanoutEnabled=%t, want true/false without a fan-out cap", c.Enabled(), c.FanoutEnabled())
	}
	var nilC *Cluster
	if nilC.Enabled() || nilC.FanoutEnabled() {
		t.Fatal("nil cluster claims to be enabled")
	}
}

// TestHealthHysteresis: a peer flips down only after downAfter
// consecutive failures and back up only after upAfter successes, via
// the real prober against a flappable /healthz.
func TestHealthHysteresis(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	c, err := New(Config{
		NodeID:        "self",
		Peers:         []Member{{ID: "self", Addr: "127.0.0.1:1"}, {ID: "p", Addr: addr}},
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	defer c.Stop()

	waitAlive := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Alive("p") == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never became alive=%t", want)
	}

	waitAlive(true)
	healthy.Store(false)
	waitAlive(false)

	// One success must not resurrect it (upAfter=2): feed exactly one
	// passive success while probes keep failing is racy, so instead
	// check the state machine directly.
	p := c.peers["p"]
	p.mu.Lock()
	up, fails := p.up, p.consecFail
	p.mu.Unlock()
	if up || fails < 2 {
		t.Fatalf("after flapping down: up=%t consecFail=%d", up, fails)
	}

	healthy.Store(true)
	waitAlive(true)
	if c.Snapshot().Peers[0].Transitions < 2 {
		t.Fatalf("transitions = %d, want >= 2", c.Snapshot().Peers[0].Transitions)
	}
}

// TestRouteOwnerSkipsDownNodes: placement consults liveness — a down
// owner's keys route to its successor, and everything routes locally
// when every remote is down.
func TestRouteOwnerSkipsDownNodes(t *testing.T) {
	peers := []Member{{ID: "a", Addr: "1:1"}, {ID: "b", Addr: "1:2"}, {ID: "c", Addr: "1:3"}}
	c, err := New(Config{NodeID: "a", Peers: peers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Find a key owned by a remote node.
	key, remote := "", ""
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if o := c.Owner(k); o != "a" {
			key, remote = k, o
			break
		}
	}
	if key == "" {
		t.Fatal("no remotely-owned key in 200 probes")
	}
	if m, self := c.RouteOwner(key); self || m.ID != remote {
		t.Fatalf("RouteOwner(%q) = %v self=%t, want %s", key, m, self, remote)
	}

	// Kill the owner (downAfter failures): the route moves to the key's
	// next alive preference.
	for i := 0; i < downAfter; i++ {
		c.ObservePeer(remote, false)
	}
	m, self := c.RouteOwner(key)
	if m.ID == remote {
		t.Fatalf("RouteOwner still targets down node %s", remote)
	}
	want := ""
	for _, id := range c.ring.preference(key) {
		if id != remote {
			want = id
			break
		}
	}
	if want == "a" != self || (!self && m.ID != want) {
		t.Fatalf("RouteOwner(%q) = %v self=%t, want %s", key, m, self, want)
	}

	// Kill everything: always handle locally rather than refuse.
	for i := 0; i < downAfter; i++ {
		c.ObservePeer("b", false)
		c.ObservePeer("c", false)
	}
	if _, self := c.RouteOwner(key); !self {
		t.Fatal("RouteOwner refused to fall back to self with all peers down")
	}
	if _, ok := c.FallbackOwner(key); ok {
		t.Fatal("FallbackOwner found an alive peer with all peers down")
	}
}

// TestSlotAccounting: fan-out slots are a bounded token pool per peer;
// exhausting them makes acquireSlot decline rather than block.
func TestSlotAccounting(t *testing.T) {
	peers := []Member{{ID: "a", Addr: "1:1"}, {ID: "b", Addr: "1:2"}}
	c, err := New(Config{NodeID: "a", Peers: peers, FanoutPerPeer: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !c.FanoutEnabled() {
		t.Fatal("fan-out not enabled")
	}
	p1, l1 := c.acquireSlot()
	p2, l2 := c.acquireSlot()
	if p1 == nil || p2 == nil || l1 == l2 {
		t.Fatalf("acquire: %v/%d %v/%d", p1, l1, p2, l2)
	}
	if p3, _ := c.acquireSlot(); p3 != nil {
		t.Fatal("acquired a third slot from a 2-slot peer")
	}
	c.releaseSlot(p1, l1)
	if p4, l4 := c.acquireSlot(); p4 == nil || l4 != l1 {
		t.Fatalf("released slot not reacquired: %v/%d", p4, l4)
	}
	c.ObservePeer("b", false)
	c.ObservePeer("b", false)
	if p5, _ := c.acquireSlot(); p5 != nil {
		t.Fatal("acquired a slot on a down peer")
	}
}

// TestCellRequestWireForm pins the POST /v1/cells body byte for byte:
// nodes of different builds must keep understanding each other's
// fanned-out cells.
func TestCellRequestWireForm(t *testing.T) {
	for _, c := range []struct {
		cr   CellRequest
		want string
	}{
		{
			CellRequest{CellSpec: harness.CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "codesign", Hot: true,
				Scale: 4096, FootprintScale: 0.01, WarmupWindows: 1, MeasureWindows: 2, Seed: 7},
				Origin: "n0", Priority: 3},
			`{"mix":"WL-6","density":"32Gb","bundle":"codesign","hot":true,"scale":4096,"footprint_scale":0.01,"warmup_windows":1,"measure_windows":2,"seed":7,"origin":"n0","priority":3}`,
		},
		{
			CellRequest{CellSpec: harness.CellSpec{Mix: "WL-1", Density: "8Gb", Bundle: "allbank",
				Scale: 256, FootprintScale: 0.05, WarmupWindows: 1, MeasureWindows: 1, Seed: 1, Mode: harness.ModeApprox},
				Origin: "a"},
			`{"mix":"WL-1","density":"8Gb","bundle":"allbank","hot":false,"scale":256,"footprint_scale":0.05,"warmup_windows":1,"measure_windows":1,"seed":1,"mode":"approx","origin":"a","priority":0}`,
		},
	} {
		got, err := json.Marshal(c.cr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("wire form\n got %s\nwant %s", got, c.want)
		}
		var back CellRequest
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back != c.cr {
			t.Errorf("round trip = %+v, want %+v", back, c.cr)
		}
	}
	// An older build also sent the coordinating figure and request id;
	// its cells still decode to the same request.
	old := `{"mix":"WL-6","density":"32Gb","bundle":"codesign","hot":true,"scale":4096,"footprint_scale":0.01,"warmup_windows":1,"measure_windows":2,"seed":7,"fig":"fig10","origin":"n0","req_id":"req-1","priority":3}`
	var back CellRequest
	if err := json.Unmarshal([]byte(old), &back); err != nil {
		t.Fatal(err)
	}
	want := CellRequest{CellSpec: harness.CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "codesign", Hot: true,
		Scale: 4096, FootprintScale: 0.01, WarmupWindows: 1, MeasureWindows: 2, Seed: 7},
		Origin: "n0", Priority: 3}
	if back != want {
		t.Errorf("older wire form decodes to %+v, want %+v", back, want)
	}
}
