package field

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// sampleRef is the per-element walk SampleInto replaces: one SampleElem call
// per element, straight on the source.
func sampleRef[Fd Field[E], E any](f Fd, r io.Reader, n int) ([]E, error) {
	out := make([]E, n)
	for i := range out {
		e, err := f.SampleElem(r)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// TestSampleF64RejectsOutOfRangeWords drives the F64 bulk sampler from a
// scripted keystream with words ≥ p at the very start, on both sides of a
// chunk boundary, and as the last word of the final read. A random source
// rejects once per 2³² draws, so only a script reaches this branch.
func TestSampleF64RejectsOutOfRangeWords(t *testing.T) {
	const n = 1030
	const perChunk = sampleChunk / 8
	// Word index → the read it lands in: [0,512) is the first chunk; two
	// rejections there make the second read [512,1024), one more makes the
	// third [1024,1033), and its rejected last word forces a fourth of one.
	bad := map[int]uint64{
		0:                  ModulusF64,
		perChunk - 1:       ^uint64(0),
		perChunk:           ModulusF64 + 1,
		2*perChunk + 9 - 1: ModulusF64,
	}
	var script []byte
	var want []uint64
	for w := 0; len(want) < n; w++ {
		v, isBad := bad[w]
		if !isBad {
			v = uint64(w)*0x9E3779B97F4A7C15%ModulusF64 | 1
			if w == 1 {
				v = ModulusF64 - 1 // the largest in-range word is kept
			}
			want = append(want, v)
		}
		script = binary.LittleEndian.AppendUint64(script, v)
	}
	if len(script) != 8*(n+len(bad)) {
		t.Fatalf("script holds %d words, want %d: a scripted rejection was never reached", len(script)/8, n+len(bad))
	}
	script = append(script, 0xAA, 0xBB) // must stay unread

	src := bytes.NewReader(script)
	got := make([]uint64, n)
	if err := SampleInto(NewF64(), src, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	if src.Len() != 2 {
		t.Errorf("sampler left %d bytes unread, want exactly the 2 trailing ones", src.Len())
	}

	ref, err := sampleRef(NewF64(), bytes.NewReader(script), n)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualVec(NewF64(), got, ref) {
		t.Error("bulk sampler disagrees with the per-element reference on the script")
	}

	// A source that runs dry mid-vector is an error, not a short result.
	if err := SampleInto(NewF64(), bytes.NewReader(script[:8*100]), got); err == nil {
		t.Error("exhausted source did not error")
	}
}

// scriptedDraws builds a source of fixed-width draws for f in which the
// draws at the given indices are all-ones (out of range for every prime
// field here) and the rest are small in-range values.
func scriptedDraws(sz, draws int, bad map[int]bool) []byte {
	script := make([]byte, 0, sz*draws)
	for d := 0; d < draws; d++ {
		draw := make([]byte, sz)
		if bad[d] {
			for i := range draw {
				draw[i] = 0xFF
			}
		} else {
			draw[sz/2] = byte(d)
			draw[(sz-1)/2] ^= byte(d >> 8)
		}
		script = append(script, draw...)
	}
	return script
}

// checkScriptedRejection runs the chunked generic path of SampleInto over a
// script with rejected draws at the start, around the first chunk boundary
// and at the end, against the per-element reference.
func checkScriptedRejection[Fd Field[E], E any](t *testing.T, f Fd) {
	t.Helper()
	sz := f.ElemSize()
	perChunk := sampleChunk / sz
	n := 2*perChunk + 7
	bad := map[int]bool{0: true, perChunk - 1: true, perChunk: true}
	// The last element's first draw is rejected too: with three rejections
	// before it, element n-1 starts at draw n+2.
	bad[n+2] = true
	draws := n + len(bad)
	script := scriptedDraws(sz, draws, bad)

	want, err := sampleRef(f, bytes.NewReader(script), n)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(append(script, 0xAA))
	got := make([]E, n)
	if err := SampleInto(f, src, got); err != nil {
		t.Fatal(err)
	}
	if !EqualVec(f, got, want) {
		t.Errorf("%s: bulk sampler disagrees with the per-element reference", f.Name())
	}
	if src.Len() != 1 {
		t.Errorf("%s: sampler left %d bytes unread, want exactly the trailing one", f.Name(), src.Len())
	}
}

func TestSampleIntoScriptedRejection(t *testing.T) {
	checkScriptedRejection[F64, uint64](t, NewF64())
	checkScriptedRejection[F128, U128](t, NewF128())
	checkScriptedRejection(t, NewFP87())
	checkScriptedRejection(t, NewFP265())
}
