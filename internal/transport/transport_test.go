package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// echoHandler responds with the request payload reversed.
func echoHandler(msgType byte, payload []byte) ([]byte, error) {
	if msgType == 9 {
		return nil, errors.New("boom")
	}
	out := make([]byte, len(payload))
	for i, b := range payload {
		out[len(payload)-1-i] = b
	}
	return out, nil
}

func checkPeer(t *testing.T, p Peer) {
	t.Helper()
	resp, err := p.Call(1, []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "olleh" {
		t.Errorf("resp = %q", resp)
	}
	// Error propagation.
	if _, err := p.Call(9, []byte("x")); err == nil {
		t.Error("remote error not propagated")
	}
	// Stats counted.
	st := p.Stats().Snapshot()
	if st.MsgsSent < 2 || st.BytesSent == 0 {
		t.Errorf("stats not counted: %+v", st)
	}
}

// TestLoopbackPeerByteAccounting pins the in-memory peer's counters to what
// a network would carry — 5 framing bytes plus the payload each way, and no
// response bytes for a handler error — the accounting Figure 6 and
// prio-bench table2 read.
func TestLoopbackPeerByteAccounting(t *testing.T) {
	p := &LoopbackPeer{Handler: echoHandler}
	checkPeer(t, p)
	st := p.Stats().Snapshot()
	want := Stats{
		BytesSent: (1 + 4 + 5) + (1 + 4 + 1), // "hello" + "x"
		MsgsSent:  2,
		BytesRecv: 1 + 4 + 5, // "olleh"; the failed call returns nothing
		MsgsRecv:  1,
	}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if _, err := p.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats().Snapshot(); st.BytesSent != want.BytesSent+5 || st.BytesRecv != want.BytesRecv+5 {
		t.Errorf("empty call not counted as two bare frames: %+v", st)
	}
}

func TestTCPPlain(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewStreamPeer(srv.Addr().String(), nil)
	defer p.Close()
	checkPeer(t, p)
}

func TestTCPTLS(t *testing.T) {
	serverCfg, clientCfg, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", serverCfg, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewStreamPeer(srv.Addr().String(), clientCfg)
	defer p.Close()
	checkPeer(t, p)
}

func TestTCPLargePayload(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewStreamPeer(srv.Addr().String(), nil)
	defer p.Close()
	big := bytes.Repeat([]byte{7}, 1<<20)
	resp, err := p.Call(2, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big) {
		t.Errorf("resp len = %d", len(resp))
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewStreamPeer(srv.Addr().String(), nil)
			defer p.Close()
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				resp, err := p.Call(1, msg)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if len(resp) != len(msg) {
					t.Errorf("bad response length")
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, 1, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("writeFrame oversize: %v", err)
	}
}
