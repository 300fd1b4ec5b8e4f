package core

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"

	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/share"
	"prio/internal/telemetry"
	"prio/internal/transport"
)

// Submission is one client's upload: a bundle per server, delivered to the
// leader, which relays each sealed bundle to its server. With PRG share
// compression (Appendix I, optimization 1) the leader's bundle carries the
// one explicit share vector and every other bundle is a 16-byte seed (in a
// sealed deployment, the 32-byte encapsulation the seed is derived from), so
// total upload size is flatLen + O(s) — the factor-s saving the paper
// reports for its five-server deployment.
type Submission struct {
	Bundles [][]byte

	// Trace, when non-nil, is a sampled telemetry trace riding along this
	// submission through the server: the ingest edge attaches it to the
	// fresh decoded Submission, each stage boundary marks it, and the
	// deciding shard finishes it. Never serialized, never set on the
	// client side — client code may share one *Submission across
	// goroutines, which only works because nothing down here writes it.
	Trace *telemetry.Trace
}

// Marshal serializes the submission for the client-to-leader channel.
func (s *Submission) Marshal() []byte { return s.AppendBinary(nil) }

// AppendBinary appends the wire form to b and returns the result, letting a
// caller with a recycled buffer (the ingest submitter's pooled frame
// scratch) serialize without a fresh allocation per submission.
func (s *Submission) AppendBinary(b []byte) []byte {
	w := wbuf{b: b}
	w.u32(uint32(len(s.Bundles)))
	for _, bundle := range s.Bundles {
		w.blob(bundle)
	}
	return w.b
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Submission) MarshalBinary() ([]byte, error) { return s.Marshal(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like
// UnmarshalSubmission, the decoded Bundles alias data — the caller must not
// recycle the input while the submission is live.
func (s *Submission) UnmarshalBinary(data []byte) error {
	sub, err := UnmarshalSubmission(data)
	if err != nil {
		return err
	}
	s.Bundles = sub.Bundles
	return nil
}

// UnmarshalSubmission parses a client upload. The returned Bundles alias b.
func UnmarshalSubmission(b []byte) (*Submission, error) {
	r := &rbuf{b: b}
	n := int(r.u32())
	if r.err != nil || n < 1 || n > 1<<10 {
		return nil, errTruncated
	}
	out := &Submission{Bundles: make([][]byte, n)}
	for i := 0; i < n; i++ {
		out.Bundles[i] = r.blob()
	}
	if !r.done() {
		return nil, errTruncated
	}
	return out, nil
}

// Bundle flags: an explicit share vector or a PRG seed. A sealed deployment
// sends and accepts no flagged seed: a seed server's bundle is the bare
// encapsulation it derives its seed from (seedLabel).
const (
	bundleExplicit byte = 0
	bundleSeed     byte = 1
)

// seedLabel is the HKDF info under which server i derives its PRG seed from
// a submission's encapsulation, "prio/seed/v1" ‖ u32be(i): binding the index
// makes two servers' seeds differ even under one key, and keeps a seed from
// serving at another position.
func seedLabel(i int) []byte {
	return binary.BigEndian.AppendUint32([]byte("prio/seed/v1"), uint32(i))
}

// Client builds submissions for one deployment. It is safe for concurrent
// use.
type Client[Fd field.Field[E], E any] struct {
	pro  *Protocol[Fd, E]
	keys []*sealbox.PublicKey // per server; required when Cfg.Seal
	rnd  io.Reader
}

// NewClient constructs a client. keys must hold one distinct sealbox public
// key per server when cfg.Seal is set; otherwise it may be nil. A key listed
// for two servers is refused: the leader relays every bundle, so a leader
// sharing server j's key could open j's share. rnd defaults to crypto/rand.
func NewClient[Fd field.Field[E], E any](pro *Protocol[Fd, E], keys []*sealbox.PublicKey, rnd io.Reader) (*Client[Fd, E], error) {
	if pro.Cfg.Seal {
		if len(keys) != pro.Cfg.Servers {
			return nil, fmt.Errorf("core: need %d server keys, got %d", pro.Cfg.Servers, len(keys))
		}
		for i, k := range keys {
			if k == nil {
				return nil, fmt.Errorf("core: server %d's key is nil", i)
			}
			for j, prev := range keys[:i] {
				if k.Equal(prev) {
					return nil, fmt.Errorf("core: servers %d and %d have the same key", j, i)
				}
			}
		}
	}
	if rnd == nil {
		rnd = rand.Reader
	}
	return &Client[Fd, E]{pro: pro, keys: keys, rnd: rnd}, nil
}

// BuildSubmission turns an AFE encoding into a complete upload: proof
// generation (per mode), share splitting with PRG compression, and sealing.
func (c *Client[Fd, E]) BuildSubmission(encoding []E) (*Submission, error) {
	p := c.pro
	f := p.Cfg.Field
	if len(encoding) != p.l {
		return nil, fmt.Errorf("core: encoding has %d elements, want %d", len(encoding), p.l)
	}

	// Assemble the flat vector to share: x ‖ [triples] ‖ [proof].
	flat := make([]E, 0, p.flatLen)
	flat = append(flat, encoding...)
	switch p.Cfg.Mode {
	case ModeNoRobust:
	case ModeSNIP:
		pf, err := p.ValidSys.Prove(encoding, c.rnd)
		if err != nil {
			return nil, err
		}
		flat = append(flat, p.ValidSys.FlattenProof(pf)...)
	case ModeMPC:
		triples, err := mpc.DealTriples(f, p.m, c.rnd)
		if err != nil {
			return nil, err
		}
		pf, err := p.TripleSys.Prove(triples, c.rnd)
		if err != nil {
			return nil, err
		}
		flat = append(flat, triples...)
		flat = append(flat, p.TripleSys.FlattenProof(pf)...)
	}

	// Server i ≥ 1 holds a PRG seed. Sealed, one ephemeral key agreement per
	// server derives it and the bundle is the 32-byte encapsulation (the
	// sealbox package doc); the s agreements and the ephemeral's own public
	// key are one batch. Unsealed, each seed is drawn fresh and sent flagged.
	s := p.Cfg.Servers
	sub := &Submission{Bundles: make([][]byte, s)}
	seeds := make([]prg.Seed, s-1)
	var eph *sealbox.Ephemeral
	if p.Cfg.Seal {
		var err error
		if eph, err = sealbox.NewEphemeral(c.keys...); err != nil {
			return nil, err
		}
		encaps := bytes.Repeat(eph.Public(), s-1)
		for i := 1; i < s; i++ {
			secret, err := eph.Secret(c.keys[i], seedLabel(i))
			if err != nil {
				return nil, err
			}
			seeds[i-1] = prg.Seed(secret[:prg.SeedSize])
			sub.Bundles[i] = encaps[:sealbox.EncapSize:sealbox.EncapSize]
			encaps = encaps[sealbox.EncapSize:]
		}
	} else {
		for i := 1; i < s; i++ {
			seed, err := prg.NewSeed()
			if err != nil {
				return nil, err
			}
			seeds[i-1] = seed
			sub.Bundles[i] = append([]byte{bundleSeed}, seed[:]...)
		}
	}

	w := &wbuf{}
	w.u8(bundleExplicit)
	wvec(w, f, share.SplitWithSeeds(f, flat, seeds))
	sub.Bundles[0] = w.b
	if eph != nil {
		sealed, err := eph.Seal(c.keys[0], w.b)
		if err != nil {
			return nil, err
		}
		sub.Bundles[0] = sealed
	}
	return sub, nil
}

// agree runs priv's agreements with the encapsulations that lead bundles as
// one batch (sealbox.PrivateKey.Agree), for decodeAgreed; nil when the
// deployment does not seal. A bundle too short to hold an encapsulation
// gets a failed agreement, so it fails alone.
func (p *Protocol[Fd, E]) agree(bundles [][]byte, priv *sealbox.PrivateKey) []sealbox.Agreement {
	if !p.Cfg.Seal {
		return nil
	}
	epks := make([][]byte, len(bundles))
	for j, b := range bundles {
		epks[j] = b[:min(len(b), sealbox.EncapSize)]
	}
	return priv.Agree(epks)
}

// decodeAgreed recovers server idx's flat share vector from its bundle into
// dst, which must hold p.flatLen elements; on success every one of them has
// been overwritten, on error dst's contents are unspecified. agr is the
// bundle's agreement from agree, nil when the deployment does not seal. A
// sealed bundle is either an encapsulation or a box around an explicit
// share; only an unsealed deployment sends flagged seeds.
func (p *Protocol[Fd, E]) decodeAgreed(bundle []byte, agr *sealbox.Agreement, idx int, dst []E) error {
	f := p.Cfg.Field
	if p.Cfg.Seal {
		if len(bundle) == sealbox.EncapSize {
			// An encapsulation (no box is this short): the seed is derived.
			secret, err := agr.Secret(seedLabel(idx))
			if err != nil {
				return err
			}
			share.ExpandInto(f, prg.Seed(secret[:prg.SeedSize]), dst)
			return nil
		}
		// An explicit share's plaintext is as large as its box (33 kB at
		// bits1024) and dead once its elements are decoded: open it into a
		// pooled buffer instead of a fresh slice per submission.
		buf := transport.GetBuf(len(bundle))
		defer buf.Free()
		pt, err := agr.OpenTo(buf.B, bundle)
		if err != nil {
			return err
		}
		bundle = pt
	} else if len(bundle) > 0 && bundle[0] == bundleSeed {
		if len(bundle) != 1+prg.SeedSize {
			return errTruncated
		}
		share.ExpandInto(f, prg.Seed(bundle[1:]), dst)
		return nil
	}
	if len(bundle) < 1 || bundle[0] != bundleExplicit || len(bundle)-1 != len(dst)*f.ElemSize() {
		return errTruncated
	}
	_, err := field.ReadInto(f, bundle[1:], dst)
	return err
}

// maxSubmission is the wire size (Submission.Marshal) of the largest
// submission every server's decodeBundle can accept: one bundle per server,
// each at most an explicit share (a flag byte and flatLen elements), sealed
// when the deployment seals. Unsealed, a seed bundle (a flag byte and a
// seed) is longer when the share is short (flatLen·ElemSize < SeedSize);
// sealed, an encapsulation is shorter than any box.
func (p *Protocol[Fd, E]) maxSubmission() int {
	bundle := 1 + p.flatLen*p.Cfg.Field.ElemSize()
	if p.Cfg.Seal {
		bundle += sealbox.Overhead
	} else {
		bundle = max(bundle, 1+prg.SeedSize)
	}
	return 4 + p.Cfg.Servers*(4+bundle)
}

// getFlat returns a vector of exactly p.flatLen elements with unspecified
// contents for one submission's share: over F64 a slab from the protocol's
// own pool (putFlat recycles it), otherwise a plain allocation.
func (p *Protocol[Fd, E]) getFlat() []E {
	if _, ok := any(p.Cfg.Field).(field.F64); ok {
		if v := p.flats.Get(); v != nil {
			return *v.(*[]E)
		}
	}
	return make([]E, p.flatLen)
}

// putFlat gives a getFlat vector back. Nothing may reference it afterwards.
func (p *Protocol[Fd, E]) putFlat(flat []E) {
	if _, ok := any(p.Cfg.Field).(field.F64); ok {
		p.flats.Put(&flat)
	}
}

// Prove runs only the proof-generation step of BuildSubmission; the
// client-time benchmarks (Table 3, Figures 7 and 8) use it to isolate the
// cryptographic work from sealing and transport.
func (c *Client[Fd, E]) Prove(encoding []E) error {
	switch c.pro.Cfg.Mode {
	case ModeSNIP:
		_, err := c.pro.ValidSys.Prove(encoding, c.rnd)
		return err
	case ModeMPC:
		triples, err := mpc.DealTriples(c.pro.Cfg.Field, c.pro.m, c.rnd)
		if err != nil {
			return err
		}
		_, err = c.pro.TripleSys.Prove(triples, c.rnd)
		return err
	default:
		return nil
	}
}
