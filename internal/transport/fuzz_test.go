package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frameBytes builds one wire frame for seeding the fuzz corpus.
func frameBytes(msgType byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgType, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// callBytes builds a rounds-call payload: u64 correlation ID, inner type,
// body.
func callBytes(corr uint64, inner byte, body []byte) []byte {
	b := make([]byte, 9+len(body))
	binary.LittleEndian.PutUint64(b, corr)
	b[8] = inner
	copy(b[9:], body)
	return b
}

// FuzzFrameDecode drives arbitrary bytes through the stream frame parser and
// the rounds-frame decoders. It asserts three properties: no panic on any
// input, forged length headers fail without committing large allocations
// (readFrame's geometric growth means memory tracks bytes actually present),
// and any payload the decoders accept re-marshals to the identical bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add(frameBytes(MsgStreamOpen, []byte(RoundsProto)))
	f.Add(frameBytes(MsgError, []byte("transport: expected a stream open frame")))
	f.Add(frameBytes(0x30, callBytes(1, 2, []byte("body"))))
	f.Add(frameBytes(0x31, append(callBytes(7, 1, nil), "reply"...)))
	f.Add(append(frameBytes(1, []byte("a")), frameBytes(2, []byte("b"))...))
	// Forged header: declares a MaxFrame-sized payload that never arrives.
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0x0f})
	// Over-limit length must be rejected outright.
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			msgType, payload, err := readFrame(r)
			if err != nil {
				break
			}
			// A parsed frame must re-frame to the same wire bytes.
			var buf bytes.Buffer
			if err := writeFrame(&buf, msgType, payload); err != nil {
				t.Fatalf("re-framing a parsed frame: %v", err)
			}

			var cf CallFrame
			if cf.UnmarshalBinary(payload) == nil {
				m, err := cf.MarshalBinary()
				if err != nil {
					t.Fatalf("CallFrame.MarshalBinary: %v", err)
				}
				if !bytes.Equal(m, payload) {
					t.Fatalf("CallFrame round-trip mismatch: %x != %x", m, payload)
				}
			}
			var rf ReplyFrame
			if rf.UnmarshalBinary(payload) == nil {
				m, err := rf.MarshalBinary()
				if err != nil {
					t.Fatalf("ReplyFrame.MarshalBinary: %v", err)
				}
				if !bytes.Equal(m, payload) {
					t.Fatalf("ReplyFrame round-trip mismatch: %x != %x", m, payload)
				}
			}
		}
	})
}
