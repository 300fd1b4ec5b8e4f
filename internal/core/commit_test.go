package core

import (
	"testing"

	"prio/internal/field"
	"prio/internal/transport"
)

// finishRecorder keeps a copy of the last MsgFinish its server was sent.
type finishRecorder struct {
	transport.Peer
	finish []byte
}

func (p *finishRecorder) Call(msgType byte, payload []byte) ([]byte, error) {
	if msgType == MsgFinish {
		p.finish = append([]byte(nil), payload...)
	}
	return p.Peer.Call(msgType, payload)
}

// TestFinishRepeatAppliesOnce: a server acknowledges a commit it already
// applied and applies nothing, and forgets the record when the leader is
// released or the server reset — after which the repeat is an unknown batch.
func TestFinishRepeatAppliesOnce(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	rec := &finishRecorder{}
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 2 {
			return p
		}
		rec.Peer = p
		return rec
	})
	srv := cl.Servers[2]
	count := func() uint64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.accCount
	}
	for _, forget := range []func(){
		func() {
			if _, err := srv.Handle(MsgReset, nil); err != nil {
				t.Fatal(err)
			}
		},
		func() { srv.ReleaseLeader(0) },
	} {
		before := count()
		if _, err := lead.ProcessBatch(honestSubs(t, client, scheme, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != before+3 {
			t.Fatalf("server 2 counted %d, want %d", got, before+3)
		}
		if _, err := srv.Handle(MsgFinish, rec.finish); err != nil {
			t.Errorf("repeated commit: %v", err)
		}
		if got := count(); got != before+3 {
			t.Errorf("repeated commit applied again: server 2 counted %d, want %d", got, before+3)
		}
		forget()
		if _, err := srv.Handle(MsgFinish, rec.finish); err == nil {
			t.Error("a forgotten commit was acknowledged")
		}
	}
}

// TestCommitLogEvictsOldest: a session's record keeps its newest
// commitMemory batch IDs, and sessions do not share a record.
func TestCommitLogEvictsOldest(t *testing.T) {
	s := &Server[field.F64, uint64]{commits: make(map[uint32]*commitLog)}
	const base = uint64(3)<<48 | uint64(7)<<32
	for i := uint64(1); i <= commitMemory+1; i++ {
		s.noteCommitLocked(base + i)
	}
	if s.committedLocked(base + 1) {
		t.Error("the oldest ID survived a full ring")
	}
	for _, id := range []uint64{base + 2, base + commitMemory + 1} {
		if !s.committedLocked(id) {
			t.Errorf("ID %#x forgotten", id)
		}
	}
	if s.committedLocked(base + 2 + 1<<32) {
		t.Error("another session's ID found in the record")
	}
}
