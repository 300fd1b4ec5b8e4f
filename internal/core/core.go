package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/prg"
	"prio/internal/sealbox"
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

	flats sync.Pool // of *[]E: F64 share slabs of exactly flatLen (getFlat)
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

// shareBytes is what one submission's share holds on each server while its
// batch verifies and commits: flatLen elements in a slab of exactly that
// length (getFlat), 32,864 B for bits1024.
func (p *Protocol[Fd, E]) shareBytes() int {
	return p.flatLen * p.Cfg.Field.ElemSize()
}

// batchCharge is what a batch of n submissions holds, summed over the
// leader and every server, from its dispatch until its completions run —
// the bytes the pipeline's budget charges it (Pipeline, rule ii):
//
//   - each server's share of each submission in its pooled slab
//     (shareBytes), plus the verifier state that indexes it;
//   - the Round1 request frames, which carry every bundle once, and the
//     Round1 replies, each server's Beaver openings per submission, which
//     the leader also keeps summed until its decision;
//   - a goroutine per server and one for the batch itself, parked while
//     the rounds are on the wire.
//
// TestBatchChargeHonest holds full batches on an in-process cluster and
// finds this within 2× of their live heap and stacks for sum8 on five
// servers and linreg10x14 and bits1024 on three.
func (p *Protocol[Fd, E]) batchCharge(n int) int {
	s, elem := p.Cfg.Servers, p.Cfg.Field.ElemSize()
	openings := 0
	if sys := p.snipSys(); sys != nil {
		openings = 2 * sys.Reps * elem
	}
	// The verifier state per submission and server: the flat share's
	// slice headers, its proof's views and its Round1 record. A parked
	// goroutine's stack: Round1's unseal and ladder work grow it to several
	// KiB.
	const stateBytes, stackBytes = 128, 8 << 10
	perSub := s*(p.shareBytes()+stateBytes+2*openings) + p.uploadBytes()
	return (s+1)*stackBytes + n*perSub
}

// uploadBytes is the wire size of one well-formed submission: the leader's
// bundle carries its explicit share, sealed when the deployment seals; every
// other server's is an encapsulation (sealed) or a flagged seed.
func (p *Protocol[Fd, E]) uploadBytes() int {
	explicit := 1 + p.flatLen*p.Cfg.Field.ElemSize()
	seed := 1 + prg.SeedSize
	if p.Cfg.Seal {
		explicit += sealbox.Overhead
		seed = sealbox.EncapSize
	}
	return 4 + 4 + explicit + (p.Cfg.Servers-1)*(4+seed)
}

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

// deriveSeed derives the verifier randomness a challenge seed stands for
// besides the SNIP challenge itself: SHA-256 over the seed, a 3-byte
// domain label and an ID, truncated to a seed. The combined probe's λ seed
// is deriveSeed(seed, "rlc", batch ID), Prio-MPC's Valid coefficients come
// from deriveSeed(seed, "mpc", 0), and the SNIP challenge is the seed's own
// PRG stream (snip.System.CachedEvaluator), so the three never share bytes.
func deriveSeed(seed prg.Seed, label string, id uint64) prg.Seed {
	var buf [prg.SeedSize + 3 + 8]byte
	copy(buf[:], seed[:])
	copy(buf[prg.SeedSize:], label)
	binary.LittleEndian.PutUint64(buf[prg.SeedSize+3:], id)
	sum := sha256.Sum256(buf[:])
	return prg.Seed(sum[:prg.SeedSize])
}

// validRho expands a challenge seed into Prio-MPC's random coefficients for
// the Valid circuit's assertion combination.
func (p *Protocol[Fd, E]) validRho(seed prg.Seed) []E {
	rho, err := field.SampleVec(p.Cfg.Field, prg.New(deriveSeed(seed, "mpc", 0)), len(p.Cfg.Scheme.Circuit().Asserts))
	if err != nil {
		// prg.PRG.Read never fails.
		panic("core: PRG sampling failed: " + err.Error())
	}
	return rho
}
