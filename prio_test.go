package prio_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"prio"
)

func TestQuickstartFlow(t *testing.T) {
	scheme := prio.NewSum(1)
	pro, err := prio.NewProtocol(prio.Config{
		Scheme:  scheme,
		Servers: 2,
		Mode:    prio.ModePrio,
		Seal:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := prio.NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := prio.NewClient(pro, cluster.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var subs []*prio.Submission
	for _, has := range []uint64{1, 0, 1, 1, 0} {
		enc, err := scheme.Encode(has)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	accepts, err := cluster.Leader.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepts {
		if !ok {
			t.Errorf("submission %d rejected", i)
		}
	}
	agg, n, err := cluster.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	total, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if total.Uint64() != 3 {
		t.Errorf("count = %v, want 3", total)
	}
}

func TestTCPDeployment(t *testing.T) {
	// Full networked flow: three server processes (simulated in-process),
	// leader connects over TCP, clients fetch keys over TCP.
	const s = 3
	scheme := prio.NewFreqCount(4)
	pro, err := prio.NewProtocol(prio.Config{
		Scheme:  scheme,
		Servers: s,
		Mode:    prio.ModePrio,
		Seal:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*prio.Server, s)
	addrs := make([]string, s)
	listeners := make([]*prio.Listener, s)
	for i := 0; i < s; i++ {
		srv, err := prio.NewServer(pro, i)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		ln, err := prio.ListenAndServe("127.0.0.1:0", srv)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	leader, err := prio.ConnectLeader(servers[0], addrs)
	if err != nil {
		t.Fatal(err)
	}

	keys := make([]*prio.ServerPublicKey, s)
	for i := 0; i < s; i++ {
		k, err := prio.FetchPublicKey(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	client, err := prio.NewClient(pro, keys, nil)
	if err != nil {
		t.Fatal(err)
	}

	votes := []int{0, 1, 1, 3, 1, 2}
	var subs []*prio.Submission
	for _, v := range votes {
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	accepts, err := leader.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range accepts {
		if !ok {
			t.Fatalf("submission %d rejected", i)
		}
	}
	agg, n, err := leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	hist, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 3, 1, 1}
	for i := range want {
		if hist[i] != want[i] {
			t.Errorf("hist[%d] = %d, want %d", i, hist[i], want[i])
		}
	}
}

func TestPublicBooleanFamily(t *testing.T) {
	or := prio.NewBoolOr(80)
	agg := make([]uint64, or.Words())
	for _, b := range []bool{false, true, false} {
		enc, err := or.Encode(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Demonstrate the share path as servers would use it.
		shares, err := prio.XorSplit(enc, 2)
		if err != nil {
			t.Fatal(err)
		}
		prio.XorAggregate(agg, shares[0])
		prio.XorAggregate(agg, shares[1])
	}
	got, err := or.Decode(agg)
	if err != nil || !got {
		t.Errorf("OR = %v err=%v, want true", got, err)
	}
}

func ExampleSum() {
	scheme := prio.NewSum(8)
	pro, _ := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: 2, Mode: prio.ModePrio})
	cluster, _ := prio.NewLocalCluster(pro)
	client, _ := prio.NewClient(pro, nil, nil)

	for _, v := range []uint64{10, 20, 30} {
		enc, _ := scheme.Encode(v)
		sub, _ := client.BuildSubmission(enc)
		cluster.Leader.ProcessBatch([]*prio.Submission{sub})
	}
	agg, n, _ := cluster.Leader.Aggregate()
	total, _ := scheme.Decode(agg, int(n))
	fmt.Println(total)
	// Output: 60
}

// TestFetchPublicKeyDoesNotHang: an address nobody answers on — refusing
// connections, or accepting them and never speaking, which is all a
// black-holed server looks like from here — is an error within the fetch
// bound, so prio-client and prio-load fail instead of hanging.
func TestFetchPublicKeyDoesNotHang(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the key-fetch timeout")
	}
	t.Parallel()
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	for _, addr := range []string{"127.0.0.1:1", hole.Addr().String()} {
		t0 := time.Now()
		if _, err := prio.FetchPublicKey(addr); err == nil {
			t.Errorf("fetching a key from %s succeeded", addr)
		}
		if took := time.Since(t0); took > 8*time.Second {
			t.Errorf("fetching a key from %s took %v", addr, took)
		}
	}
}
