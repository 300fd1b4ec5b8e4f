package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// stallType is the message type stallServer parks on.
const stallType = 0x42

// stallServer serves a handler that echoes every message except stallType,
// which blocks until release is closed (and then echoes too). entered
// receives one value per stalled call, once the handler is inside.
func stallServer(t *testing.T) (srv *Server, entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	srv, err := Listen("127.0.0.1:0", nil, func(msgType byte, payload []byte) ([]byte, error) {
		if msgType == stallType {
			entered <- struct{}{}
			<-release
		}
		return append([]byte(nil), payload...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, entered, release
}

// TestCallTimeoutStalledHandler: a CallTimeout against a handler that never
// answers returns within its bound and drops the connection; calls riding
// another peer to the same server are untouched; the next call on the timed
// out peer re-dials and succeeds, and the stalled handler's late reply — it
// is released only afterwards — resolves nobody.
func TestCallTimeoutStalledHandler(t *testing.T) {
	srv, entered, release := stallServer(t)
	defer srv.Close()
	addr := srv.Addr().String()
	slow := NewStreamPeer(addr, nil)
	defer slow.Close()
	other := NewStreamPeer(addr, nil)
	defer other.Close()

	// Rounds-style traffic on the other peer, running across the timeout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				msg := []byte(fmt.Sprintf("round-%d-%d", g, i))
				resp, err := other.Call(1, msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("call on the other peer during the stall: %q, %v", resp, err)
					return
				}
			}
		}(g)
	}

	const bound = 100 * time.Millisecond
	t0 := time.Now()
	_, err := slow.CallTimeout(stallType, []byte("stalled"), bound)
	took := time.Since(t0)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("stalled call: err = %v, want a timeout", err)
	}
	if took < bound || took > bound+2*time.Second {
		t.Errorf("stalled call returned after %v, bound %v", took, bound)
	}
	<-entered // the handler really was inside, holding the reply

	// The connection was dropped: the next call re-dials and gets its own
	// reply.
	resp, err := slow.CallTimeout(1, []byte("next"), 2*time.Second)
	if err != nil || string(resp) != "next" {
		t.Fatalf("call after the timeout: %q, %v", resp, err)
	}
	// Now let the stalled handler answer. Its reply goes to a connection
	// that no longer exists; calls on the new one must see only their own.
	close(release)
	for i := 0; i < 50; i++ {
		msg := []byte(fmt.Sprintf("later-%d", i))
		resp, err := slow.CallTimeout(1, msg, 2*time.Second)
		if err != nil || !bytes.Equal(resp, msg) {
			t.Fatalf("call %d after the late reply: %q, %v", i, resp, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCallTimeoutFailsPendingCallsOnTheConnection: expiry is "slow = dead"
// for the whole connection — a plain Call pending on it fails with the
// timeout instead of waiting on a peer already judged dead.
func TestCallTimeoutFailsPendingCallsOnTheConnection(t *testing.T) {
	srv, entered, release := stallServer(t)
	defer srv.Close()
	defer close(release)
	p := NewStreamPeer(srv.Addr().String(), nil)
	defer p.Close()

	pending := make(chan error, 1)
	go func() {
		_, err := p.Call(stallType, nil)
		pending <- err
	}()
	<-entered
	if _, err := p.CallTimeout(stallType, nil, 50*time.Millisecond); err == nil {
		t.Fatal("stalled CallTimeout succeeded")
	}
	select {
	case err := <-pending:
		if err == nil {
			t.Error("pending call on the dropped connection succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call still waiting after the connection was dropped")
	}
}

// TestCallTimeoutDeadAddress: nothing listening fails promptly, and a
// listener that accepts and never speaks — a black hole as far as the
// protocol can tell — fails at the bound instead of hanging.
func TestCallTimeoutDeadAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	p := NewStreamPeer(addr, nil)
	defer p.Close()
	t0 := time.Now()
	if _, err := p.CallTimeout(1, nil, time.Second); err == nil {
		t.Fatal("call to a closed port succeeded")
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("call to a closed port took %v", took)
	}

	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never read, until the test ends
		}
	}()
	q := NewStreamPeer(hole.Addr().String(), nil)
	defer q.Close()
	t0 = time.Now()
	if _, err := q.CallTimeout(1, nil, 100*time.Millisecond); err == nil {
		t.Fatal("call into a black hole succeeded")
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("call into a black hole took %v", took)
	}
}

// TestStreamPeerCloseDuringPendingCall: Close fails the calls in flight with
// ErrClosed and refuses later ones.
func TestStreamPeerCloseDuringPendingCall(t *testing.T) {
	srv, entered, release := stallServer(t)
	defer srv.Close()
	defer close(release)
	p := NewStreamPeer(srv.Addr().String(), nil)

	const calls = 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		timed := i%2 == 1
		go func() {
			var err error
			if timed {
				_, err = p.CallTimeout(stallType, nil, time.Minute)
			} else {
				_, err = p.Call(stallType, nil)
			}
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		<-entered
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("pending call: err = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending call survived Close")
		}
	}
	if _, err := p.Call(1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close: %v", err)
	}
	if _, err := p.CallTimeout(1, nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("CallTimeout after Close: %v", err)
	}
}

// TestStreamPeerRedialAfterRestart: the peer survives its server restarting
// on the same address — the first call reports the break, a later one
// re-dials.
func TestStreamPeerRedialAfterRestart(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	p := NewStreamPeer(addr, nil)
	defer p.Close()
	if resp, err := p.CallTimeout(1, []byte("ab"), time.Second); err != nil || string(resp) != "ba" {
		t.Fatalf("first call: %q, %v", resp, err)
	}
	srv.Close()
	if _, err := p.CallTimeout(1, nil, time.Second); err == nil {
		t.Fatal("call against closed server succeeded")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := Serve(ln, echoHandler)
	defer srv2.Close()
	waitCond(t, 2*time.Second, func() bool {
		_, err := p.CallTimeout(1, nil, time.Second)
		return err == nil
	}, "redial against restarted server never succeeded")
}

// TestNonStreamFirstFrame: a connection must open with MsgStreamOpen. Any
// other first frame — a request/response call from a client that predates
// the single peer, or the retired probe and envelope types — is answered
// with MsgError and the connection is closed; the handler never sees it.
func TestNonStreamFirstFrame(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil, func(byte, []byte) ([]byte, error) {
		return nil, errors.New("handler must not see a bare request frame")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, first := range []byte{1, 0xFC, 0xFE, msgRoundsCall} {
		fc, err := DialStream(srv.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.WriteFrame(first, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := fc.Flush(); err != nil {
			t.Fatal(err)
		}
		msgType, payload, err := fc.ReadFrame()
		if err != nil {
			t.Fatalf("first frame %#x: %v", first, err)
		}
		if msgType != MsgError || !strings.Contains(string(payload), "stream open") {
			t.Errorf("first frame %#x: got type %#x payload %q, want MsgError", first, msgType, payload)
		}
		if _, _, err := fc.ReadFrame(); !errors.Is(err, io.EOF) {
			t.Errorf("first frame %#x: connection not closed after the error: %v", first, err)
		}
		fc.Close()
	}
}
