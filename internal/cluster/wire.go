package cluster

import (
	"encoding/binary"
	"fmt"
)

// MsgClusterInfo is the cluster-membership exchange: a member (or a client
// resolving the leader) sends an empty request, the served member answers
// with its Info. The type sits in the 0x30 block, clear of the core protocol
// (1–10), ingest (0x20–0x22), and the reserved transport types (0xFC–0xFF).
// NewMember splices HandleInfo in front of the core handler for it.
const MsgClusterInfo byte = 0x30

// Info is one member's view of the cluster, small enough to ride along every
// health probe: epoch gossip is what lets a restarted member rejoin at the
// cluster's current epoch instead of reasserting leadership from epoch 0.
type Info struct {
	// Epoch is the rotation counter; leaderAt(Epoch) holds coordination
	// duty. Failovers and timed rotations bump it; members adopt any higher
	// epoch they see.
	Epoch uint64
	// Leader is the sender's current view of the leader index.
	Leader uint32
	// Self is the sender's roster index.
	Self uint32
	// N is the sender's roster size, a cheap configuration cross-check.
	N uint32
	// Alive is the sender's liveness bitmap (bit i = member i up).
	Alive uint64
}

const infoLen = 8 + 4 + 4 + 4 + 8

// Marshal encodes the Info.
func (in Info) Marshal() []byte {
	b := make([]byte, infoLen)
	binary.LittleEndian.PutUint64(b[0:], in.Epoch)
	binary.LittleEndian.PutUint32(b[8:], in.Leader)
	binary.LittleEndian.PutUint32(b[12:], in.Self)
	binary.LittleEndian.PutUint32(b[16:], in.N)
	binary.LittleEndian.PutUint64(b[20:], in.Alive)
	return b
}

// ParseInfo decodes an Info.
func ParseInfo(b []byte) (Info, error) {
	if len(b) != infoLen {
		return Info{}, fmt.Errorf("cluster: info is %d bytes, want %d", len(b), infoLen)
	}
	return Info{
		Epoch:  binary.LittleEndian.Uint64(b[0:]),
		Leader: binary.LittleEndian.Uint32(b[8:]),
		Self:   binary.LittleEndian.Uint32(b[12:]),
		N:      binary.LittleEndian.Uint32(b[16:]),
		Alive:  binary.LittleEndian.Uint64(b[20:]),
	}, nil
}

// AliveAt reports bit i of the liveness bitmap.
func (in Info) AliveAt(i int) bool { return i < 64 && in.Alive&(1<<uint(i)) != 0 }
