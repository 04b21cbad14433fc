// Package scalarwork implements the s×s "Scalar Work" of the s-step
// conjugate gradient methods (line 7 of the paper's Algorithms 2-6): turning
// the fused reduction payload into the conjugation coefficients β (an s×s
// matrix B) and the step coefficients α (an s-vector), via two s×s linear
// solves with LU factorization — exactly the structure the paper describes.
//
// # Derivation
//
// Let K = [r, Ar, …, A^{s-1}r] be the new Krylov block (in the
// preconditioned methods, powers of M⁻¹A applied to u = M⁻¹r), P the
// previous direction block, W₋₁ = PᵀAP its A-Gram matrix (known from the
// previous step), and C the cross-Gram C[l][j] = ((AP)_l, K_j).
//
// The new direction block Q = K + P·B must satisfy QᵀAP = 0, which gives
//
//	W₋₁·B = -C            (first LU solve, s right-hand sides)
//
// Its own Gram then follows without any further global reduction:
//
//	W = QᵀAQ = KᵀAK + CᵀB + BᵀC + BᵀW₋₁B = M + CᵀB,
//
// where M[j][k] = (K_j, A·K_k) = μ_{j+k+1} comes from the 2s monomial
// moments μ_m = (r, A^m r) the paper's vm vector carries (by symmetry of A,
// every entry of M is a moment). Minimizing the error functional over the
// new direction space gives
//
//	W·α = g,   g = Kᵀr + Bᵀ(Pᵀr)   (second LU solve)
//
// with Kᵀr = (μ_0, …, μ_{s-1}); Pᵀr vanishes in exact arithmetic but is
// carried in the payload for robustness in finite precision.
//
// The full reduction payload per outer iteration is therefore
// {μ_0..μ_{2s-1}} ∪ {C (s² entries)} ∪ {Pᵀr (s entries)} ∪ {norm terms},
// combined into ONE allreduce — the same single reduction per s iterations
// as the paper, with a message a few dozen bytes longer (the simulator
// prices the extra bytes; see DESIGN.md §2).
package scalarwork

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dense"
)

// ErrBreakdown is returned when a Gram matrix is numerically singular, which
// signals loss of independence in the direction block (the breakdown mode of
// s-step methods at tight tolerances the paper's §V discusses).
var ErrBreakdown = errors.New("scalarwork: Gram matrix singular — s-step basis lost independence")

// Payload is the layout of the fused reduction vector:
//
//	[ μ_0..μ_{2s-1} | C (s×s row-major) | Pᵀr (s) | extras… ]
type Payload struct {
	S      int
	Extras int // number of caller-defined trailing slots (norm terms)
}

// Len returns the payload length in float64 words.
func (p Payload) Len() int { return 2*p.S + p.S*p.S + p.S + p.Extras }

// Mu returns the moment slice of buf.
func (p Payload) Mu(buf []float64) []float64 { return buf[:p.OffC()] }

// C returns the cross-Gram slice of buf (row-major s×s, C[l*s+j]).
func (p Payload) C(buf []float64) []float64 { return buf[p.OffC():p.OffGP()] }

// GP returns the Pᵀr slice of buf.
func (p Payload) GP(buf []float64) []float64 { return buf[p.OffGP():p.OffExtra()] }

// Extra returns the trailing extras slice of buf.
func (p Payload) Extra(buf []float64) []float64 { return buf[p.OffExtra():] }

// OffC, OffGP and OffExtra are the buffer offsets of the C, GP and Extra
// sections (the moments start at 0), for kernels that write payload entries
// by index.
func (p Payload) OffC() int     { return 2 * p.S }
func (p Payload) OffGP() int    { return 2*p.S + p.S*p.S }
func (p Payload) OffExtra() int { return 2*p.S + p.S*p.S + p.S }

// Coeffs is the result of one scalar-work step.
type Coeffs struct {
	// B is the s×s conjugation matrix (row-major, B[k*s+j] = coefficient of
	// previous direction k in new direction j). Zero on the first step.
	B []float64
	// Alpha is the step vector. When the direction block lost independence
	// (an over-effective preconditioner makes the Krylov vectors nearly
	// parallel), only the leading K entries are nonzero.
	Alpha []float64
	// K is the effective block size this step advanced (≤ s): the largest
	// leading subblock of W that was safely positive definite.
	K int
	// W is the new direction block's A-Gram matrix, carried to the next step.
	W *dense.Matrix
}

// State carries the scalar recurrence between outer iterations.
type State struct {
	S     int
	WPrev *dense.Matrix // nil before the first iteration
}

// NewState returns the scalar-work state for block size s.
func NewState(s int) *State {
	if s < 1 {
		panic(fmt.Sprintf("scalarwork: s must be ≥ 1, got %d", s))
	}
	return &State{S: s}
}

// momentMatrix builds M[j][k] = μ_{j+k+1} from the moment vector.
func momentMatrix(mu []float64, s int) *dense.Matrix {
	m := dense.NewMatrix(s, s)
	for j := 0; j < s; j++ {
		for k := 0; k < s; k++ {
			m.Set(j, k, mu[j+k+1])
		}
	}
	return m
}

// Step consumes one reduced payload and produces the conjugation matrix B,
// the step vector α and the next Gram matrix W. It advances the state.
func (st *State) Step(p Payload, buf []float64) (Coeffs, error) {
	if p.S != st.S {
		return Coeffs{}, fmt.Errorf("scalarwork: payload s=%d does not match state s=%d", p.S, st.S)
	}
	if len(buf) < p.Len() {
		return Coeffs{}, fmt.Errorf("scalarwork: payload buffer %d < %d", len(buf), p.Len())
	}
	s := st.S
	mu := p.Mu(buf)
	cRaw := p.C(buf)
	gp := p.GP(buf)

	b := make([]float64, s*s)
	w := momentMatrix(mu, s)
	g := make([]float64, s)
	copy(g, mu[:s])

	if st.WPrev != nil {
		// First solve: W₋₁·B = -C (C stored row-major as C[l][j]). A
		// singular previous Gram degrades gracefully to B = 0 — a local
		// restart that drops conjugacy against the degenerate block.
		c := &dense.Matrix{Rows: s, Cols: s, Data: cRaw}
		if luPrev, err := dense.FactorLU(st.WPrev); err == nil {
			negC := c.Clone().Scale(-1)
			bMat := luPrev.SolveMatrix(negC)
			finite := true
			for _, v := range bMat.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					finite = false
					break
				}
			}
			if finite {
				copy(b, bMat.Data)
				// W = M + CᵀB, symmetrized to scrub rounding skew.
				w = dense.SymmetrizedCopy(dense.Add(w, dense.Mul(c.Transpose(), bMat)))
				// g = Kᵀr + Bᵀ(Pᵀr).
				for j := 0; j < s; j++ {
					for l := 0; l < s; l++ {
						g[j] += b[l*s+j] * gp[l]
					}
				}
			}
		}
	}

	// Second solve: W·α = g, deflating to the largest leading subblock of W
	// that is safely positive definite. Losing trailing directions happens
	// when the preconditioner is so effective that the Krylov vectors are
	// nearly parallel; the step then simply advances fewer dimensions.
	alpha := make([]float64, s)
	k := s
	for ; k >= 1; k-- {
		sub := dense.NewMatrix(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				sub.Set(i, j, w.At(i, j))
			}
		}
		ch, err := dense.FactorCholesky(sub)
		if err != nil {
			continue
		}
		aSub := ch.Solve(g[:k])
		ok := true
		for _, v := range aSub {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
		}
		if ok {
			copy(alpha, aSub)
			break
		}
	}
	if k == 0 {
		return Coeffs{}, fmt.Errorf("%w (no positive definite leading block)", ErrBreakdown)
	}

	st.WPrev = w
	return Coeffs{B: b, Alpha: alpha, K: k, W: w}, nil
}

// Reset clears the recurrence (used when a solver restarts).
func (st *State) Reset() { st.WPrev = nil }
