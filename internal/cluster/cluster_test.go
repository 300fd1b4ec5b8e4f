package cluster

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prio/internal/transport"
)

func TestRosterParse(t *testing.T) {
	r, err := ParseRoster("a:1, b:2,c:3")
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 3 || r.Addrs[1] != "b:2" {
		t.Fatalf("parsed %v", r.Addrs)
	}
	if _, err := ParseRoster(""); err == nil {
		t.Error("empty roster accepted")
	}
	if _, err := ParseRoster("x:1,x:1"); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := ParseRoster(strings.Repeat("m:1,", MaxMembers) + "last:1"); err == nil {
		t.Error("oversized roster accepted")
	}
}

func TestRosterFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roster")
	content := "# three-member deployment\nhost0:7000\nhost1:7000  # second\n\nhost2:7000\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadOrParseRoster(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "host0:7000,host1:7000,host2:7000" {
		t.Fatalf("loaded %q", r.String())
	}
	// The same entry point must fall back to the comma form.
	r, err = LoadOrParseRoster("p:1,q:2")
	if err != nil || r.N() != 2 {
		t.Fatalf("comma fallback: %v %v", r, err)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	in := Info{Epoch: 7, Leader: 1, Self: 2, N: 3, Alive: 0b101}
	out, err := ParseInfo(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	if !out.AliveAt(0) || out.AliveAt(1) || !out.AliveAt(2) {
		t.Error("bitmap decode wrong")
	}
	if _, err := ParseInfo(in.Marshal()[:10]); err == nil {
		t.Error("short info accepted")
	}
}

// fakeCluster wires n Nodes together with in-memory probes: a probe from
// member a to member b fails while down[b] is set, and otherwise returns
// b's real gossip payload.
type fakeCluster struct {
	mu    sync.Mutex
	nodes []*Node
	down  []bool
}

func (fc *fakeCluster) setDown(i int, d bool) {
	fc.mu.Lock()
	fc.down[i] = d
	fc.mu.Unlock()
}

func (fc *fakeCluster) probe(peer int, _ time.Duration) ([]byte, error) {
	fc.mu.Lock()
	dead := fc.down[peer]
	node := fc.nodes[peer]
	fc.mu.Unlock()
	if dead || node == nil {
		return nil, errors.New("unreachable")
	}
	return node.HandleInfo(nil)
}

func newFakeCluster(t *testing.T, n int, cfg Config) *fakeCluster {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "member" + string(rune('0'+i)) + ":0"
	}
	ros := &Roster{Addrs: addrs}
	fc := &fakeCluster{nodes: make([]*Node, n), down: make([]bool, n)}
	for i := 0; i < n; i++ {
		c := cfg
		c.Roster = ros
		c.Self = i
		c.Probe = fc.probe
		if c.PingInterval == 0 {
			c.PingInterval = 5 * time.Millisecond
		}
		if c.Grace == 0 {
			c.Grace = time.Millisecond
		}
		nd, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		fc.mu.Lock()
		fc.nodes[i] = nd
		fc.mu.Unlock()
	}
	for _, nd := range fc.nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range fc.nodes {
			nd.Stop()
		}
	})
	return fc
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestFailoverElectsNextMember: killing the leader moves duty to the next
// live member within the failure threshold, every survivor agrees, and the
// restarted member rejoins as a follower (epoch gossip wins over its stale
// epoch-0 claim to leadership).
func TestFailoverElectsNextMember(t *testing.T) {
	fc := newFakeCluster(t, 3, Config{})
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[0].IsLeader() }, "member 0 never took initial leadership")

	fc.setDown(0, true)
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[1].IsLeader() }, "member 1 never took over")
	waitFor(t, 2*time.Second, func() bool {
		e2, l2 := fc.nodes[2].View()
		return e2 >= 1 && l2 == 1
	}, "member 2 never agreed on the new leader")
	if fc.nodes[2].IsLeader() {
		t.Error("member 2 claims leadership too")
	}

	// "Restart" member 0: back online at its stale epoch. It must adopt the
	// cluster epoch via gossip and stay a follower.
	fc.setDown(0, false)
	waitFor(t, 2*time.Second, func() bool {
		e0, l0 := fc.nodes[0].View()
		return e0 >= 1 && l0 == 1
	}, "restarted member never adopted the cluster epoch")
	if fc.nodes[0].IsLeader() {
		t.Error("restarted member reasserted leadership")
	}
	if !fc.nodes[1].IsLeader() {
		t.Error("leader lost duty when the old member returned")
	}
}

// TestCascadingFailover: with members 0 and 1 both dead, duty lands on 2.
func TestCascadingFailover(t *testing.T) {
	fc := newFakeCluster(t, 3, Config{})
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[0].IsLeader() }, "no initial leader")
	fc.setDown(0, true)
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[1].IsLeader() }, "member 1 never led")
	fc.setDown(1, true)
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[2].IsLeader() }, "member 2 never led")
}

// TestTimedRotation: with RotateEvery set, the sitting leader cedes duty on
// the interval and the epoch advances once per handoff (only the leader
// bumps, so n members do not multiply the rotation rate).
func TestTimedRotation(t *testing.T) {
	fc := newFakeCluster(t, 3, Config{RotateEvery: 20 * time.Millisecond})
	sawLeader := make(map[int]bool)
	waitFor(t, 5*time.Second, func() bool {
		for i, nd := range fc.nodes {
			if nd.IsLeader() {
				sawLeader[i] = true
			}
		}
		return len(sawLeader) == 3
	}, "rotation never cycled duty through all members")
}

// TestLeaderGate: followers refuse ingest admission, naming the leader.
func TestLeaderGate(t *testing.T) {
	fc := newFakeCluster(t, 2, Config{})
	waitFor(t, 2*time.Second, func() bool { return fc.nodes[0].IsLeader() }, "no leader")
	if err := fc.nodes[0].LeaderGate()(); err != nil {
		t.Errorf("leader gate refused: %v", err)
	}
	err := fc.nodes[1].LeaderGate()()
	if err == nil {
		t.Fatal("follower gate admitted")
	}
	if !strings.Contains(err.Error(), "leader 0") {
		t.Errorf("gate error does not name the leader: %v", err)
	}
}

// TestResolveOverTCP exercises the wire path end to end: real listeners
// answering MsgClusterInfo, one member down, Resolve picking the
// highest-epoch answer.
func TestResolveOverTCP(t *testing.T) {
	mk := func(info Info) (*transport.Server, string) {
		srv, err := transport.Listen("127.0.0.1:0", nil, func(msgType byte, payload []byte) ([]byte, error) {
			if msgType != MsgClusterInfo {
				return nil, errors.New("unexpected type")
			}
			return info.Marshal(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, srv.Addr().String()
	}
	// Member 0 is dead (never listened); 1 and 2 answer, 2 with the higher
	// epoch view naming 1 as leader.
	s1, a1 := mk(Info{Epoch: 0, Leader: 0, Self: 1, N: 3})
	defer s1.Close()
	s2, a2 := mk(Info{Epoch: 3, Leader: 1, Self: 2, N: 3})
	defer s2.Close()
	ros := &Roster{Addrs: []string{"127.0.0.1:1", a1, a2}}

	info, addr, err := Resolve(ros, ResolveConfig{Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 3 || addr != a1 {
		t.Fatalf("resolved epoch %d addr %s, want epoch 3 addr %s", info.Epoch, addr, a1)
	}

	// All members dead — one refusing connections, one accepting them and
	// never answering (a black hole as far as the protocol can tell):
	// resolution must fail within the per-member bound, not hang.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	dead := &Roster{Addrs: []string{"127.0.0.1:1", hole.Addr().String()}}
	t0 := time.Now()
	if _, _, err := Resolve(dead, ResolveConfig{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("resolve against dead roster succeeded")
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("resolve against dead roster took %v", took)
	}
}
