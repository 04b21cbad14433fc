package comm

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// FaultConfig is a deterministic, seed-driven fault model for the fabric:
// every decision (drop this message? flip which bit?) is a pure function of
// (Seed, from, to, kind, seq), so a chaos run is reproducible regardless of
// goroutine scheduling. A nil *FaultConfig on the fabric means a perfect
// interconnect (the default, bit-identical to the fault-free runtime).
//
// The model covers the failure classes the pipelined-CG literature worries
// about (Cools & Vanroose; Ghysels et al.): lost messages, duplicated
// deliveries, reordering via per-message delay, a per-rank straggler whose
// sends jitter, and silent in-flight payload corruption (single bit flips).
type FaultConfig struct {
	Seed uint64

	DropRate    float64 // probability a message is silently lost
	DupRate     float64 // probability a message is delivered twice
	DelayRate   float64 // probability a message is held back (reordering)
	DelayMax    time.Duration
	CorruptRate float64 // probability of a single bit flip in the payload

	// StragglerRank, when ≥ 0, names a rank whose every send is delayed by
	// a deterministic jitter in (0, StragglerJitter] — the latency-variance
	// scenario the global-reduction-pipelining paper motivates.
	StragglerRank   int
	StragglerJitter time.Duration

	// Checksum appends a checksum word to every payload and verifies it at
	// the receiver; a mismatch is repaired from the sender's retransmit
	// store (and counted), so injected corruption never reaches the
	// numerics. Disable it to study how corrupted reductions propagate
	// into the Krylov recurrences (the solver resilience ladder's job).
	Checksum bool
}

// salts separate the independent random decisions derived from one message id.
const (
	saltDrop = iota + 1
	saltDup
	saltDelay
	saltDelayAmount
	saltCorrupt
	saltCorruptWord
	saltCorruptBit
	saltJitter
)

// faultSplitmix64 is the SplitMix64 mixing function (same construction the
// synth package uses for deterministic edge weights).
func faultSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes the message identity and a salt into 64 uniform bits.
func (fc *FaultConfig) hash(from, to, kind, seq, salt int) uint64 {
	h := fc.Seed
	for _, v := range [5]int{from, to, kind, seq, salt} {
		h = faultSplitmix64(h ^ uint64(v))
	}
	return h
}

// unit maps a decision to a uniform float64 in (0, 1).
func (fc *FaultConfig) unit(from, to, kind, seq, salt int) float64 {
	return (float64(fc.hash(from, to, kind, seq, salt)>>11) + 0.5) / (1 << 53)
}

// faultDecision is the injector's verdict for one message.
type faultDecision struct {
	drop        bool
	dup         bool
	delay       time.Duration
	corruptWord int // -1 = intact
	corruptBit  uint
}

// decide computes the (deterministic) faults to inject into one message.
func (fc *FaultConfig) decide(from, to, kind, seq int) faultDecision {
	d := faultDecision{corruptWord: -1}
	if fc.DropRate > 0 && fc.unit(from, to, kind, seq, saltDrop) < fc.DropRate {
		d.drop = true
	}
	if fc.DupRate > 0 && fc.unit(from, to, kind, seq, saltDup) < fc.DupRate {
		d.dup = true
	}
	if fc.DelayRate > 0 && fc.DelayMax > 0 &&
		fc.unit(from, to, kind, seq, saltDelay) < fc.DelayRate {
		d.delay += time.Duration(fc.unit(from, to, kind, seq, saltDelayAmount) * float64(fc.DelayMax))
	}
	if fc.StragglerRank == from && fc.StragglerJitter > 0 {
		d.delay += time.Duration(fc.unit(from, to, kind, seq, saltJitter) * float64(fc.StragglerJitter))
	}
	if fc.CorruptRate > 0 && fc.unit(from, to, kind, seq, saltCorrupt) < fc.CorruptRate {
		d.corruptWord = int(fc.hash(from, to, kind, seq, saltCorruptWord) >> 1)
		d.corruptBit = uint(fc.hash(from, to, kind, seq, saltCorruptBit) % 64)
	}
	return d
}

// checksum folds the payload bits into one word (FNV-1a over float64 bit
// patterns, finalized with SplitMix64). It rides along as an extra float64
// whose bit pattern is the hash; receivers compare bits, never arithmetic.
func checksum(data []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range data {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return faultSplitmix64(h)
}

// FaultStats counts injected faults (sender side) and detected/recovered
// faults (receiver side) for one rank.
type FaultStats struct {
	DropsInjected    int
	DupsInjected     int
	DelaysInjected   int
	FlipsInjected    int
	Timeouts         int // recv deadline expiries
	Resends          int // payloads recovered from the retransmit store
	ChecksumFailures int // corrupted payloads detected (repaired when possible)
}

// add accumulates other into s (for cross-rank aggregation).
func (s *FaultStats) add(o FaultStats) {
	s.DropsInjected += o.DropsInjected
	s.DupsInjected += o.DupsInjected
	s.DelaysInjected += o.DelaysInjected
	s.FlipsInjected += o.FlipsInjected
	s.Timeouts += o.Timeouts
	s.Resends += o.Resends
	s.ChecksumFailures += o.ChecksumFailures
}

// String summarizes the stats.
func (s FaultStats) String() string {
	return fmt.Sprintf("injected drop=%d dup=%d delay=%d flip=%d; recovered timeout=%d resend=%d cksum=%d",
		s.DropsInjected, s.DupsInjected, s.DelaysInjected, s.FlipsInjected,
		s.Timeouts, s.Resends, s.ChecksumFailures)
}

// FaultKind classifies a fabric failure.
type FaultKind int

const (
	// FaultTimeout: a receive (or request wait) exceeded its deadline and
	// the retransmit store had nothing to recover — the peer never sent.
	FaultTimeout FaultKind = iota
	// FaultMismatch: the deadlock diagnostic found ranks waiting on
	// different collectives (kind/seq skew) — an SPMD divergence bug or a
	// fault-driven control-flow split, not a slow network.
	FaultMismatch
	// FaultClosed: a receive was woken because a rank's body unwound
	// (RunErr) or the fabric closed.
	FaultClosed
	// FaultLeak: Close found messages sent but never received.
	FaultLeak
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultTimeout:
		return "timeout"
	case FaultMismatch:
		return "mismatched-collective"
	case FaultClosed:
		return "closed"
	case FaultLeak:
		return "leak"
	}
	return "unknown"
}

// FaultError is the typed error every deadline-aware primitive returns (and
// the engine unwinds with inside an engine.Abort, for comm.RunErr to
// recover): a chaos run either
// converges or surfaces one of these — never a frozen process.
type FaultError struct {
	Kind FaultKind
	Rank int    // rank that observed the failure (-1 when not rank-specific)
	Msg  string // diagnostic detail, including per-rank collective status
	Err  error  // FaultClosed: the error of the rank that left, if any
}

// Error implements error.
func (e *FaultError) Error() string {
	msg := e.Msg
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	if e.Rank >= 0 {
		return fmt.Sprintf("comm: %s on rank %d: %s", e.Kind, e.Rank, msg)
	}
	return fmt.Sprintf("comm: %s: %s", e.Kind, msg)
}

// Unwrap returns the leaving rank's error, so errors.Is sees through a
// FaultClosed to the cause (a canceled job's context error, say).
func (e *FaultError) Unwrap() error { return e.Err }

// kindName labels a message kind in diagnostics.
func kindName(kind int) string {
	switch kind {
	case kindReduce:
		return "reduce"
	case kindBcast:
		return "bcast"
	case kindHalo:
		return "halo"
	}
	return fmt.Sprintf("kind%d", kind)
}

// rankStatus is what a rank reports it is currently blocked on, the raw
// material of the deadlock diagnostic.
type rankStatus struct {
	waiting         bool
	from, kind, seq int
}

// formatStatuses renders the per-rank wait table for a deadlock diagnostic.
func formatStatuses(sts []rankStatus) string {
	var b strings.Builder
	for r, st := range sts {
		if r > 0 {
			b.WriteString("; ")
		}
		if st.waiting {
			fmt.Fprintf(&b, "r%d waiting(%s,seq=%d,from=%d)", r, kindName(st.kind), st.seq, st.from)
		} else {
			fmt.Fprintf(&b, "r%d running", r)
		}
	}
	return b.String()
}

// mismatched reports whether two waiting ranks disagree on what collective
// they are in — the signature of a mismatched-collective deadlock.
func mismatched(sts []rankStatus) bool {
	first := -1
	for r, st := range sts {
		if !st.waiting || st.kind == kindHalo {
			continue
		}
		if first < 0 {
			first = r
			continue
		}
		if sts[first].kind != st.kind || sts[first].seq != st.seq {
			return true
		}
	}
	return false
}
