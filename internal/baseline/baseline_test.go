package baseline

import (
	"testing"

	"prio/internal/field"
	"prio/internal/transport"
)

func TestNoPrivEndToEnd(t *testing.T) {
	f := field.NewF64()
	srv, err := NewNoPrivServer(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	peer := &transport.LoopbackPeer{Handler: srv.Handler()}
	want := []uint64{0, 0, 0, 0}
	for c := 0; c < 10; c++ {
		vec := []uint64{uint64(c), 1, 0, uint64(c * c)}
		for i := range vec {
			want[i] += vec[i]
		}
		blob, err := BuildSubmission(f, srv.PublicKey(), vec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Call(MsgSubmit, blob); err != nil {
			t.Fatal(err)
		}
	}
	agg, n := srv.Aggregate()
	if n != 10 {
		t.Fatalf("count = %d", n)
	}
	if !field.EqualVec(f, agg, want) {
		t.Errorf("aggregate = %v, want %v", agg, want)
	}
	srv.Reset()
	agg, n = srv.Aggregate()
	if n != 0 || !f.IsZero(agg[0]) {
		t.Error("Reset did not clear the accumulator")
	}
}

func TestNoPrivRejectsMalformed(t *testing.T) {
	f := field.NewF64()
	srv, err := NewNoPrivServer(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Not a sealed box at all.
	if _, err := srv.Handle(MsgSubmit, []byte("junk")); err == nil {
		t.Error("accepted junk payload")
	}
	// Wrong vector length inside a valid box.
	blob, err := BuildSubmission(f, srv.PublicKey(), []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle(MsgSubmit, blob); err == nil {
		t.Error("accepted short vector")
	}
	// Unknown message type.
	if _, err := srv.Handle(99, nil); err == nil {
		t.Error("accepted unknown message type")
	}
	// Direct submit length check.
	if err := srv.Submit([]uint64{1}); err == nil {
		t.Error("Submit accepted wrong length")
	}
}
