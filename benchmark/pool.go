package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"prio"
	"prio/internal/core"
	"prio/internal/field"
	"prio/internal/sealbox"
)

// Framing the ingest stream adds to one submission: the transport frame
// header (type + u32 length) and the stream-local u64 ID.
const submitFrameOverhead = 5 + 8

// encodeSeeded draws one client value for scheme from rng and encodes it.
func encodeSeeded(scheme prio.Scheme, rng *rand.Rand) ([]uint64, error) {
	switch s := scheme.(type) {
	case *prio.Sum:
		return s.Encode(rng.Uint64() >> (64 - uint(s.Bits())))
	case *prio.BitVector:
		bits := make([]bool, s.Len())
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		return s.Encode(bits)
	case *prio.LinReg:
		// linreg<d>x14: every feature and the label are 14-bit.
		xs := make([]uint64, s.D())
		for i := range xs {
			xs[i] = uint64(rng.Intn(1 << 14))
		}
		return s.Encode(xs, uint64(rng.Intn(1<<14)))
	case *prio.CountMin:
		item := make([]byte, 16)
		rng.Read(item)
		return s.Encode(item)
	default:
		return nil, fmt.Errorf("no seeded value generator for scheme %s", scheme.Name())
	}
}

// prepared is everything a run builds before any server starts: the
// protocol, the servers' keys, and the recycled submission pool. A traced
// run deploys twice (untraced baseline, then traced) over one prepared.
type prepared struct {
	w      *workload
	scheme prio.Scheme
	pro    *prio.Protocol
	privs  []*sealbox.PrivateKey
	client *prio.Client
	pool   *pool
}

// pool is the recycled set of pre-built submissions, as the paper's load
// generators and prio-load use. The program under test only ever sees subs.
type pool struct {
	subs    []*prio.Submission
	honest  []bool     // the decision every ack for this entry must carry
	encs    [][]uint64 // the encoding each entry was built from
	trunc   [][]uint64 // its first KPrime elements: what the servers sum
	upload  []float64  // client→leader framed bytes
	order   []int      // seeded walk order
	buildUS []float64  // BuildSubmission time per entry
	byKey   map[uint64]int32
}

// poolKey identifies a submission by the head of its leader bundle: a sealed
// box opens with a fresh ephemeral public key, so it is unique per entry.
func poolKey(sub *core.Submission) uint64 {
	if len(sub.Bundles) == 0 || len(sub.Bundles[0]) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(sub.Bundles[0])
}

// uploadBytes is the framed size of one submission on the ingest stream.
func uploadBytes(sub *prio.Submission) int {
	n := submitFrameOverhead + 4
	for _, b := range sub.Bundles {
		n += 4 + len(b)
	}
	return n
}

// relayBytes is what of a submission the leader must forward to the other
// servers: the sealed bundles addressed to servers 1…s-1.
func relayBytes(sub *prio.Submission) int {
	n := 0
	for _, b := range sub.Bundles[1:] {
		n += 4 + len(b)
	}
	return n
}

func newProtocol(spec string, servers int) (prio.Scheme, *prio.Protocol, error) {
	scheme, err := prio.ParseScheme(spec)
	if err != nil {
		return nil, nil, err
	}
	pro, err := prio.NewProtocol(prio.Config{Scheme: scheme, Servers: servers, Mode: prio.ModePrio, Seal: true})
	return scheme, pro, err
}

func newKeys(n int) ([]*sealbox.PrivateKey, []*prio.ServerPublicKey, error) {
	privs := make([]*sealbox.PrivateKey, n)
	pubs := make([]*prio.ServerPublicKey, n)
	for i := range privs {
		pub, priv, err := sealbox.GenerateKey()
		if err != nil {
			return nil, nil, err
		}
		privs[i], pubs[i] = priv, pub
	}
	return privs, pubs, nil
}

// prepare builds the protocol, keys and pool of a server workload. Values,
// the out-of-range positions and the walk order all come from seed; proof
// randomness and sealing use crypto/rand, as real clients do.
func prepare(w *workload, seed int64, size int) (*prepared, error) {
	scheme, pro, err := newProtocol(w.scheme, w.servers)
	if err != nil {
		return nil, err
	}
	privs, pubs, err := newKeys(w.servers)
	if err != nil {
		return nil, err
	}
	client, err := prio.NewClient(pro, pubs, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := &pool{
		subs:    make([]*prio.Submission, size),
		honest:  make([]bool, size),
		encs:    make([][]uint64, size),
		trunc:   make([][]uint64, size),
		upload:  make([]float64, size),
		buildUS: make([]float64, size),
		byKey:   make(map[uint64]int32, size),
	}
	for i := range p.honest {
		p.honest[i] = true
	}
	// At least one bad entry whenever the workload has any, so a small pool
	// (the smoke test) still exercises the bisecting fallback.
	if w.badFrac > 0 {
		nBad := max(1, int(w.badFrac*float64(size)+0.5))
		for _, i := range rng.Perm(size)[:nBad] {
			p.honest[i] = false
		}
	}
	for i := range p.subs {
		enc, err := encodeSeeded(scheme, rng)
		if err != nil {
			return nil, err
		}
		if !p.honest[i] {
			// Out of range: the last element is a bit of the encoding's
			// binary decomposition, and 2 is not a bit.
			enc[len(enc)-1] = 2
		}
		t0 := time.Now()
		sub, err := client.BuildSubmission(enc)
		p.buildUS[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return nil, err
		}
		p.subs[i] = sub
		p.encs[i] = enc
		p.trunc[i] = enc[:scheme.KPrime()]
		p.upload[i] = float64(uploadBytes(sub))
		p.byKey[poolKey(sub)] = int32(i)
	}
	p.order = rng.Perm(size)
	return &prepared{w: w, scheme: scheme, pro: pro, privs: privs, client: client, pool: p}, nil
}

// timeBuilds builds the pool's entries again, back to back and round-robin
// for the given time, and returns what each BuildSubmission took in
// microseconds. The submissions are dropped: this only samples
// client_encode_us on a server workload.
func (pr *prepared) timeBuilds(seconds float64) ([]float64, error) {
	var us []float64
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			return us, nil
		}
		if _, err := pr.client.BuildSubmission(pr.pool.encs[i%len(pr.pool.encs)]); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// reference sums the truncated encodings of accepted submissions, the
// aggregate the servers must hold: counts[i] is how often entry i was
// accepted.
func (p *pool) reference(counts []uint64) ([]uint64, uint64) {
	f := field.NewF64()
	sum := make([]uint64, len(p.trunc[0]))
	var n uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		n += c
		k := f.FromUint64(c)
		for j, e := range p.trunc[i] {
			sum[j] = f.Add(sum[j], f.Mul(k, e))
		}
	}
	return sum, n
}
