// Package sim implements the virtual-clock cluster simulator that stands in
// for the paper's Cray XC40. A sim.Engine records around an engine.Seq that
// runs a solver's real numerics once (global vectors, exact kernel sequence),
// appending every kernel invocation as a cost event; Evaluate then replays
// the stream on a machine model for any rank count P: modeled wall time with
// a full breakdown of compute, exposed allreduce, hidden (overlapped)
// allreduce and halo exchange.
//
// This design makes strong-scaling sweeps cheap: one real solve per method
// yields the timing curve over every P, because the numerics (and hence the
// iteration counts) do not depend on P — exactly as in the paper, where all
// methods run the same mathematics regardless of scale.
package sim

import "math"

// Machine models the distributed-memory system. The defaults in CrayXC40
// are calibrated so that the modeled strong-scaling curves for the paper's
// 125-pt / 1M-unknown Poisson problem reproduce the qualitative shape of
// Fig. 1 (PCG speedup peaking around 40 nodes, pipelined crossovers at
// 50-60 nodes); absolute times are not meaningful.
type Machine struct {
	Name         string
	CoresPerNode int

	// FlopRate is the sustained floating point rate per core (flops/s) for
	// compute-bound kernels; MemBW the sustained memory bandwidth per core
	// (bytes/s) for bandwidth-bound kernels. Each kernel is priced as the
	// max of its flop time and its bandwidth time (roofline).
	FlopRate float64
	MemBW    float64

	// Allreduce cost: G(P, m) = ceil(log2 P) · (AllreduceAlpha +
	// AllreduceBeta · 8m) for m reduced float64 words — a binomial/
	// recursive-doubling tree with per-hop latency and per-byte cost.
	AllreduceAlpha float64
	AllreduceBeta  float64

	// IallreduceFactor scales G for non-blocking allreduces. On the
	// paper's system the software-progressed MPI_Iallreduce (DMAPP +
	// MPICH_NEMESIS_ASYNC_PROGRESS threads) is several times slower than
	// the hardware-optimized blocking MPI_Allreduce; that asymmetry is
	// precisely why hiding the non-blocking reduction behind s kernels
	// matters. 1.0 models equal-latency collectives.
	IallreduceFactor float64

	// Point-to-point (halo exchange) cost: per-message latency and
	// per-byte cost.
	P2PAlpha float64
	P2PBeta  float64

	// AsyncProgress is the fraction θ ∈ [0,1] of compute time between an
	// Iallreduce post and its Wait that also progresses the reduction.
	// θ=1 models perfect asynchronous progress (the paper's
	// MPICH_NEMESIS_ASYNC_PROGRESS=1 + DMAPP configuration); θ=0 models a
	// library that only progresses inside MPI calls, degrading every
	// pipelined method to blocking behaviour.
	AsyncProgress float64
}

// CrayXC40 returns the calibrated stand-in for the paper's SahasraT system:
// 24-core nodes, Aries-like interconnect.
func CrayXC40() Machine {
	return Machine{
		Name:             "cray-xc40-sim",
		CoresPerNode:     24,
		FlopRate:         1e10,  // 10 GFlop/s/core sustained
		MemBW:            5e9,   // 5 GB/s/core sustained (node STREAM / 24)
		AllreduceAlpha:   3e-5,  // 30 µs/hop effective (incl. noise at scale)
		AllreduceBeta:    2e-10, // per byte per hop
		IallreduceFactor: 2.5,   // software-progressed Iallreduce penalty
		P2PAlpha:         2e-6,  // 2 µs/message
		P2PBeta:          2e-10, // 5 GB/s per link
		AsyncProgress:    1,
	}
}

// Gnb returns the modeled non-blocking allreduce time (the latency a
// pipelined method must hide).
func (m Machine) Gnb(p, words int) float64 {
	f := m.IallreduceFactor
	if f <= 0 {
		f = 1
	}
	return f * m.G(p, words)
}

// G returns the modeled allreduce time for p ranks reducing `words` float64s.
func (m Machine) G(p, words int) float64 {
	if p <= 1 {
		return 0
	}
	hops := math.Ceil(math.Log2(float64(p)))
	return hops * (m.AllreduceAlpha + m.AllreduceBeta*8*float64(words))
}

// Roofline prices local work of the given flops and bytes on one core.
func (m Machine) Roofline(flops, bytes float64) float64 {
	return math.Max(flops/m.FlopRate, bytes/m.MemBW)
}

// Nodes returns the node count for p cores (rounded up).
func (m Machine) Nodes(p int) int {
	return (p + m.CoresPerNode - 1) / m.CoresPerNode
}
