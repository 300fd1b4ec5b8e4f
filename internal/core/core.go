package core

import (
	"errors"
	"fmt"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/snip"
)

// Mode selects the verification strategy.
type Mode uint8

// The three pipeline modes evaluated in the paper.
const (
	// ModeNoRobust is the "No robustness" baseline: private sums with no
	// client validation whatsoever.
	ModeNoRobust Mode = iota
	// ModeSNIP is full Prio: client-generated secret-shared proofs.
	ModeSNIP
	// ModeMPC is Prio-MPC: the servers evaluate Valid themselves with
	// client-dealt, SNIP-certified Beaver triples.
	ModeMPC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNoRobust:
		return "no-robust"
	case ModeSNIP:
		return "prio"
	case ModeMPC:
		return "prio-mpc"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config describes one Prio deployment. All participants must share it.
type Config[Fd field.Field[E], E any] struct {
	// Field is the arithmetic field.
	Field Fd
	// Scheme is the AFE being aggregated.
	Scheme afe.Scheme[E]
	// Servers is the server count s (≥ 1; the paper deploys 5).
	Servers int
	// Mode selects SNIP, MPC, or no verification.
	Mode Mode
	// SnipReps is the soundness repetition count (see snip.Params).
	SnipReps int
	// Seal encrypts each share bundle to its server with a sealed box, as
	// the paper's clients do. Disable only for microbenchmarks.
	Seal bool
	// ChallengeEvery re-samples the shared verification challenge after
	// this many submissions (the Q of Appendix I; default 1024).
	ChallengeEvery int
}

// Protocol holds the precomputed, immutable derivations of a Config: the
// SNIP systems and the flat share layout. Build one per deployment and share
// it among clients and servers in the same process.
type Protocol[Fd field.Field[E], E any] struct {
	Cfg Config[Fd, E]

	// ValidSys proves Valid(x) directly (ModeSNIP).
	ValidSys *snip.System[Fd, E]
	// TripleSys proves the client's Beaver triples well-formed (ModeMPC).
	TripleSys *snip.System[Fd, E]

	// Layout of the flat per-server share vector.
	l       int // AFE encoding length K
	kPrime  int // aggregated prefix
	m       int // multiplication gates in Valid
	flatLen int // total elements shared per server
}

// NewProtocol validates the configuration and precomputes the SNIP systems.
func NewProtocol[Fd field.Field[E], E any](cfg Config[Fd, E]) (*Protocol[Fd, E], error) {
	if cfg.Servers < 1 {
		return nil, errors.New("core: need at least one server")
	}
	if cfg.Scheme == nil {
		return nil, errors.New("core: missing scheme")
	}
	if cfg.ChallengeEvery <= 0 {
		cfg.ChallengeEvery = 1024
	}
	p := &Protocol[Fd, E]{Cfg: cfg}
	p.l = cfg.Scheme.K()
	p.kPrime = cfg.Scheme.KPrime()
	p.m = cfg.Scheme.Circuit().M()
	switch cfg.Mode {
	case ModeNoRobust:
		p.flatLen = p.l
	case ModeSNIP:
		sys, err := snip.NewSystem(cfg.Field, cfg.Scheme.Circuit(), snip.Params{Reps: cfg.SnipReps})
		if err != nil {
			return nil, err
		}
		p.ValidSys = sys
		p.flatLen = p.l + sys.ProofLen()
	case ModeMPC:
		tc := mpc.TripleCircuit(cfg.Field, p.m)
		sys, err := snip.NewSystem(cfg.Field, tc, snip.Params{Reps: cfg.SnipReps})
		if err != nil {
			return nil, err
		}
		p.TripleSys = sys
		p.flatLen = p.l + 3*p.m + sys.ProofLen()
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	return p, nil
}

// FlatLen returns the number of field elements in each server's share of one
// submission (before PRG compression).
func (p *Protocol[Fd, E]) FlatLen() int { return p.flatLen }

// splitFlat cuts a server's flat share vector into its parts:
// (x, triples, proofFlat) according to the mode's layout.
func (p *Protocol[Fd, E]) splitFlat(flat []E) (x, triples, proofFlat []E, err error) {
	if len(flat) != p.flatLen {
		return nil, nil, nil, fmt.Errorf("core: flat share has %d elements, want %d", len(flat), p.flatLen)
	}
	x = flat[:p.l]
	switch p.Cfg.Mode {
	case ModeNoRobust:
	case ModeSNIP:
		proofFlat = flat[p.l:]
	case ModeMPC:
		triples = flat[p.l : p.l+3*p.m]
		proofFlat = flat[p.l+3*p.m:]
	}
	return x, triples, proofFlat, nil
}

// snipSys returns the SNIP system active in this mode (nil for ModeNoRobust).
func (p *Protocol[Fd, E]) snipSys() *snip.System[Fd, E] {
	if p.Cfg.Mode == ModeMPC {
		return p.TripleSys
	}
	return p.ValidSys
}

// challenge bundles the verifier randomness shared by the servers for a
// window of submissions: the SNIP challenge plus, in MPC mode, the random
// coefficients for the Valid circuit's assertion combination.
type challenge[E any] struct {
	sn       *snip.Challenge[E]
	validRho []E
}

// marshalChallenge serializes a challenge for MsgSetChallenge.
func (p *Protocol[Fd, E]) marshalChallenge(ch *challenge[E]) []byte {
	f := p.Cfg.Field
	w := &wbuf{}
	if sys := p.snipSys(); sys != nil {
		wvec(w, f, ch.sn.R)
		wvec(w, f, ch.sn.Rho)
	}
	if p.Cfg.Mode == ModeMPC {
		wvec(w, f, ch.validRho)
	}
	return w.b
}

// unmarshalChallenge parses a challenge.
func (p *Protocol[Fd, E]) unmarshalChallenge(b []byte) (*challenge[E], error) {
	f := p.Cfg.Field
	r := &rbuf{b: b}
	ch := &challenge[E]{}
	if sys := p.snipSys(); sys != nil {
		reps := sys.Reps
		if sys.M == 0 {
			reps = 0
		}
		ch.sn = &snip.Challenge[E]{
			R:   rvec(r, f, reps),
			Rho: rvec(r, f, len(sys.C.Asserts)),
		}
	}
	if p.Cfg.Mode == ModeMPC {
		ch.validRho = rvec(r, f, len(p.Cfg.Scheme.Circuit().Asserts))
	}
	if !r.done() {
		return nil, errTruncated
	}
	return ch, nil
}
