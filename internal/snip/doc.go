// Package snip implements secret-shared non-interactive proofs, the core
// cryptographic contribution of the Prio paper (Section 4).
//
// A client holding x ∈ F^L proves to s servers — each holding only an
// additive share of x — that Valid(x) holds for a public arithmetic circuit,
// without revealing anything else about x. The proof consists of:
//
//   - shares of f(ω⁰) and g(ω⁰), the random anchors of the two polynomials
//     that interpolate the left/right inputs of every multiplication gate
//     (Section 4.2, "client evaluation of Valid");
//   - shares of h = f·g in point-value form over a 2N-point root-of-unity
//     domain, so verifiers never interpolate (Appendix I, optimization 2),
//     less the N−M−Reps even points where h is zero because f and g are
//     zero-padded: everyone knows those, so N+M+Reps points are sent. The
//     prover gets the even points as the products fv[t]·gv[t] it already
//     holds (the anchors' products and the gate outputs) and the odd
//     points, the coset ω₂ₙ·D_N, from one N-point coset transform of each
//     of f and g (poly.Domain.Coset): no 2N-point transform runs;
//   - shares of one Beaver multiplication triple per soundness repetition
//     (Appendix C.2).
//
// Verification is the Schwartz-Zippel polynomial identity test of Section
// 4.2, executed over shares with Beaver's MPC multiplication, plus a
// random-linear-combination check that all assertion wires are zero
// (Appendix I, circuit optimization). Each server transmits a constant
// number of field elements per submission, independent of |x| and of the
// circuit size — the property measured in Figure 6.
//
// The package is two-phase: a System precomputes everything derivable from
// the circuit (domains, FFT plans, layouts), and per-challenge Evaluators
// run the two verification rounds. Evaluators are safe for concurrent use
// across submissions, which is what lets core's sharded pipeline verify
// many batches in parallel under one challenge (Appendix I's window Q).
package snip
