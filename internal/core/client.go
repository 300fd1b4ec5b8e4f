package core

import (
	"crypto/rand"
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
// one explicit share vector and every other bundle is a 16-byte seed, so
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

// Bundle flags: an explicit share vector or a PRG seed.
const (
	bundleExplicit byte = 0
	bundleSeed     byte = 1
)

// Client builds submissions for one deployment. It is safe for concurrent
// use.
type Client[Fd field.Field[E], E any] struct {
	pro  *Protocol[Fd, E]
	keys []*sealbox.PublicKey // per server; required when Cfg.Seal
	rnd  io.Reader
}

// NewClient constructs a client. keys must hold one sealbox public key per
// server when cfg.Seal is set; otherwise it may be nil. rnd defaults to
// crypto/rand.
func NewClient[Fd field.Field[E], E any](pro *Protocol[Fd, E], keys []*sealbox.PublicKey, rnd io.Reader) (*Client[Fd, E], error) {
	if pro.Cfg.Seal && len(keys) != pro.Cfg.Servers {
		return nil, fmt.Errorf("core: need %d server keys, got %d", pro.Cfg.Servers, len(keys))
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

	s := p.Cfg.Servers
	sub := &Submission{Bundles: make([][]byte, s)}
	var explicit []E
	if s == 1 {
		explicit = flat
	} else {
		seeds, last, err := share.SplitSeeded(f, flat, s)
		if err != nil {
			return nil, err
		}
		explicit = last
		for i := 1; i < s; i++ {
			sub.Bundles[i] = append([]byte{bundleSeed}, seeds[i-1][:]...)
		}
	}
	w := &wbuf{}
	w.u8(bundleExplicit)
	wvec(w, f, explicit)
	sub.Bundles[0] = w.b

	if p.Cfg.Seal {
		for i := range sub.Bundles {
			sealed, err := sealbox.Seal(c.keys[i], sub.Bundles[i])
			if err != nil {
				return nil, err
			}
			sub.Bundles[i] = sealed
		}
	}
	return sub, nil
}

// decodeBundle recovers a server's flat share vector from its bundle into
// dst, which must hold p.flatLen elements; on success every one of them has
// been overwritten, on error dst's contents are unspecified.
func (p *Protocol[Fd, E]) decodeBundle(bundle []byte, priv *sealbox.PrivateKey, dst []E) error {
	if p.Cfg.Seal {
		// An explicit share's plaintext is as large as its box (41 kB at
		// bits1024) and dead once its elements are decoded: open it into a
		// pooled buffer instead of a fresh slice per submission.
		buf := transport.GetBuf(len(bundle))
		defer buf.Free()
		pt, err := sealbox.OpenTo(priv, buf.B, bundle)
		if err != nil {
			return err
		}
		bundle = pt
	}
	if len(bundle) < 1 {
		return errTruncated
	}
	f := p.Cfg.Field
	switch bundle[0] {
	case bundleSeed:
		if len(bundle) != 1+prg.SeedSize {
			return errTruncated
		}
		var seed prg.Seed
		copy(seed[:], bundle[1:])
		share.ExpandInto(f, seed, dst)
		return nil
	case bundleExplicit:
		if len(bundle)-1 != len(dst)*f.ElemSize() {
			return errTruncated
		}
		_, err := field.ReadInto(f, bundle[1:], dst)
		return err
	default:
		return errTruncated
	}
}

// getFlat returns a vector of p.flatLen elements with unspecified contents
// for one submission's share: over F64 a pooled slab (putFlat recycles it),
// otherwise a plain allocation.
func (p *Protocol[Fd, E]) getFlat() []E {
	if _, ok := any(p.Cfg.Field).(field.F64); ok {
		return any(field.GetSlabUninit(p.flatLen)).([]E)
	}
	return make([]E, p.flatLen)
}

// putFlat gives a getFlat vector back. Nothing may reference it afterwards.
func putFlat[E any](flat []E) {
	if slab, ok := any(flat).([]uint64); ok {
		field.PutSlab(slab)
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
