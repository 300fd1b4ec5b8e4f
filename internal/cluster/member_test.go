package cluster

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prio/internal/afe"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/ingest"
	"prio/internal/sealbox"
	"prio/internal/telemetry"
)

// TestMemberFailover drives three in-process Members over TCP: sealed sum8
// traffic through the roster-resolving failover submitter is aggregated
// exactly by the leader, every member exports its peer and cluster series,
// closing the leader hands duty to a successor whose gate admits, and the
// old leader restarted on its own address and key rejoins as a follower.
func TestMemberFailover(t *testing.T) {
	const n, subs = 3, 200
	const ping = 50 * time.Millisecond // the boot grace is four of these
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := core.NewProtocol(core.Config[field.F64, uint64]{
		Field: f, Scheme: scheme, Servers: n, Mode: core.ModeSNIP, Seal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	ros, err := ParseRoster(strings.Join(addrs, ","))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*sealbox.PrivateKey, n)
	pubs := make([]*sealbox.PublicKey, n)
	for i := range keys {
		if pubs[i], keys[i], err = sealbox.GenerateKey(); err != nil {
			t.Fatal(err)
		}
	}
	regs := make([]*telemetry.Registry, n)
	start := func(i int, ln net.Listener) *Member[field.F64, uint64] {
		t.Helper()
		regs[i] = telemetry.New()
		m, err := NewMember(MemberConfig[field.F64, uint64]{
			Listener: ln,
			Protocol: pro,
			Key:      keys[i],
			Registry: regs[i],
			// A closed member fails its probes at once; the long timeout
			// keeps a member slowed by a loaded host from looking dead.
			Cluster:  Config{Roster: ros, Self: i, PingInterval: ping, PingTimeout: time.Second},
			Pipeline: core.PipelineConfig{Shards: 2, MaxBatch: 8, Retries: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	members := make([]*Member[field.F64, uint64], n)
	for i := range members {
		members[i] = start(i, lns[i])
	}
	t.Cleanup(func() {
		for _, m := range members {
			if m != nil {
				m.Close()
			}
		}
	})
	admits := func(i int) bool { return members[i].Node.LeaderGate()() == nil }
	waitFor(t, 5*time.Second, func() bool { return admits(0) }, "member 0 never took initial leadership")

	// 10% of the submissions encode an out-of-range bit vector the SNIP check
	// must reject.
	client, err := core.NewClient(pro, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var accepted, rejected atomic.Uint64
	sub, err := ingest.NewFailoverSubmitter(ingest.FailoverConfig{
		Dial: LeaderDial(ros, ResolveConfig{}),
		OnFinal: func(a ingest.Ack) {
			switch a.Status {
			case ingest.StatusAccepted:
				accepted.Add(1)
			case ingest.StatusRejected:
				rejected.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	bad := make([]uint64, scheme.K())
	for j := range bad {
		bad[j] = 7
	}
	var wantSum, wantValid uint64
	for i := 0; i < subs; i++ {
		enc := bad
		if i%10 != 9 {
			v := uint64(i * 37 % 256)
			if enc, err = scheme.Encode(v); err != nil {
				t.Fatal(err)
			}
			wantSum += v
			wantValid++
		}
		s, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	sub.Wait()
	if accepted.Load() != wantValid || rejected.Load() != subs-wantValid {
		t.Fatalf("acks: %d accepted, %d rejected; want %d, %d (%+v)",
			accepted.Load(), rejected.Load(), wantValid, subs-wantValid, sub.Stats())
	}
	agg, count, err := members[0].Pipeline.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := scheme.Decode(agg, int(count))
	if err != nil {
		t.Fatal(err)
	}
	if count != wantValid || !sum.IsUint64() || sum.Uint64() != wantSum {
		t.Fatalf("aggregate over %d clients is %v; want %d over %d", count, sum, wantSum, wantValid)
	}

	for i, reg := range regs {
		snap := reg.Snapshot()
		for _, series := range []string{`prio_peer_bytes_sent_total{peer="1"}`, "prio_cluster_is_leader"} {
			if _, ok := snap[series]; !ok {
				t.Errorf("member %d does not export %s", i, series)
			}
		}
	}

	members[0].Close()
	members[0] = nil
	succ := -1
	waitFor(t, 5*time.Second, func() bool {
		info, addr, err := Resolve(ros, ResolveConfig{Timeout: 200 * time.Millisecond})
		if err != nil || addr == addrs[0] {
			return false
		}
		succ = int(info.Leader)
		return admits(succ)
	}, "no successor took over within 5s of the leader closing")

	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	members[0] = start(0, ln)
	waitFor(t, 5*time.Second, func() bool {
		e, l := members[0].Node.View()
		return e >= 1 && l == succ
	}, "restarted member never adopted the cluster's epoch")
	// Past its boot grace, the restarted member must still follow.
	time.Sleep(4 * ping)
	if admits(0) || !admits(succ) {
		t.Fatalf("after the restart: member 0 admits=%v, successor %d admits=%v", admits(0), succ, admits(succ))
	}
}
