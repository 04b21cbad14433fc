package serve

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/krylov"
	"repro/internal/workload"
)

// MethodAuto is the request method that delegates solver selection to the
// service's stability tuner. An auto job runs whatever configuration the
// tuner currently believes is best for its operator fingerprint, and its
// outcome — convergence, out-of-band true-residual drift, measured overlap —
// feeds the next decision for that fingerprint.
const MethodAuto = "auto"

// Tuner knobs. The drift threshold is workload.DriftLimit, the offline
// differential harness's too, so both flag the same runs; a switch onto the
// replacement variant records krylov.DefaultReplaceEvery, the cadence that
// variant runs at unset. The cadence floor stops the tightening loop from
// degenerating into replacement-every-iteration (which would abandon the
// pipelined recurrences entirely rather than stabilize them).
const (
	// tunerColdStartMethod is what an unknown fingerprint runs first: the
	// paper's headline pipelined s-step method, at the request's s.
	tunerColdStartMethod = "pipe-pscg"
	// tunerStableMethod is the stability fallback: pipelined CG with periodic
	// residual replacement (Meurant recurrences + the rk_replace policy).
	tunerStableMethod = "pipe-m-cg-rr"
	// tunerMinCadence bounds cadence tightening from below.
	tunerMinCadence = 6
	// tunerLowHidden flags a run whose overlap ledger hid almost none of its
	// reduction latency: the deep pipeline is not paying for its extra
	// arithmetic, so the tuner shrinks s instead of keeping the basis depth.
	tunerLowHidden = 0.05
	// tunerCap bounds the remembered fingerprints, which are partly client
	// input: past it the least recently used record is forgotten.
	tunerCap = 1024
)

// TunerRecord is the remembered best configuration for one operator
// fingerprint, plus the evidence that produced it.
type TunerRecord struct {
	Method       string `json:"method"`
	S            int    `json:"s"`
	ReplaceEvery int    `json:"replace_every,omitempty"`
	// Switched marks a record written by a stability or efficiency switch (as
	// opposed to a confirmation of the configuration that just ran).
	Switched bool `json:"switched,omitempty"`
	// Reason is the human-readable trigger of the last write.
	Reason string `json:"reason"`
	// DriftRatio is the max true/recurrence residual ratio observed on the
	// run that wrote this record (0 when the run had no drift probe).
	DriftRatio float64 `json:"drift_ratio,omitempty"`
	// HiddenFraction is the overlap ledger's measured hidden fraction on the
	// run that wrote this record.
	HiddenFraction float64 `json:"hidden_fraction,omitempty"`
	// Jobs counts the auto jobs that have run under this fingerprint.
	Jobs int `json:"jobs"`
}

// tuneDecision carries one auto job's resolved configuration from Resolve
// (in Manager.run, before the solver is looked up) to Record (in finishJob).
type tuneDecision struct {
	fp           string
	Method       string
	S            int
	ReplaceEvery int
	// WarmStart is true when the decision came from a recorded fingerprint
	// rather than the cold-start default.
	WarmStart bool
}

// Tuner is the serve-side stability auto-selector: per operator fingerprint
// (registry key + preconditioner + tolerance) it remembers the best known
// {method, s, replacement cadence} and steers repeat auto jobs onto it.
//
// Decision rule, evaluated when an auto job finishes:
//
//   - Unhealthy (did not converge, or the out-of-band drift probe measured
//     the true residual > workload.DriftLimit × the recurrence residual):
//     switch to the residual-replacement variant; if already on it, halve
//     the replacement cadence (floor tunerMinCadence).
//   - Healthy but the overlap ledger hid < tunerLowHidden of the reduction
//     latency at s > 1: keep the method, halve s — the pipeline depth is pure
//     arithmetic overhead when there is nothing left to hide.
//   - Healthy otherwise: confirm the configuration that ran.
//
// The record is consulted at submission of the NEXT auto job with the same
// fingerprint (warm start); a running job is never re-steered mid-solve, so
// the solve the client observes is always one deterministic configuration.
type Tuner struct {
	met *Metrics

	mu  sync.Mutex
	rec map[string]*list.Element // of *tunerEntry in lru
	lru list.List                // most recently used at the front
}

type tunerEntry struct {
	fp  string
	rec TunerRecord
}

// NewTuner builds an empty tuner feeding the given metrics ledger.
func NewTuner(met *Metrics) *Tuner {
	return &Tuner{met: met, rec: map[string]*list.Element{}}
}

// tuneFingerprint names the tuning unit: the registry's operator key plus the
// two request knobs that reshape convergence (preconditioner, tolerance).
// Method, s and cadence are deliberately excluded — they are the outputs.
func tuneFingerprint(r SolveRequest) string {
	return fmt.Sprintf("%s|pc=%s|rtol=%g", r.ProblemSpec.Key(), r.PC, r.RelTol)
}

// Resolve picks the configuration an auto job will run: the recorded best for
// its fingerprint when one exists (a warm start), else the cold-start default
// at the request's s.
func (t *Tuner) Resolve(req SolveRequest) *tuneDecision {
	fp := tuneFingerprint(req)
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.rec[fp]; ok {
		t.lru.MoveToFront(el)
		rec := &el.Value.(*tunerEntry).rec
		rec.Jobs++
		t.met.tunerWarmstarts.Add(1)
		return &tuneDecision{fp: fp, Method: rec.Method, S: rec.S,
			ReplaceEvery: rec.ReplaceEvery, WarmStart: true}
	}
	return &tuneDecision{fp: fp, Method: tunerColdStartMethod, S: req.S}
}

// Record folds one finished auto job's signals into the fingerprint's record.
// hidden < 0 means the overlap ledger measured nothing (no posted
// reductions) and the efficiency rule is skipped. Canceled jobs teach
// nothing (cancellation is operational, not numerical) and are not recorded.
func (t *Tuner) Record(dec *tuneDecision, res *krylov.Result, driftRatio, hidden float64) {
	converged := res != nil && res.Converged
	drifted := finiteF(driftRatio) && driftRatio > workload.DriftLimit
	next := TunerRecord{Method: dec.Method, S: dec.S, ReplaceEvery: dec.ReplaceEvery}
	if finiteF(driftRatio) && driftRatio > 0 {
		next.DriftRatio = driftRatio
	}
	if finiteF(hidden) && hidden >= 0 {
		next.HiddenFraction = hidden
	}

	switch {
	case !converged || drifted:
		next.Switched = true
		if !converged {
			next.Reason = "solve did not converge"
		} else {
			next.Reason = fmt.Sprintf("true residual drifted %.3gx past the recurrence", driftRatio)
		}
		if dec.Method == tunerStableMethod {
			// Already on replacement: tighten the cadence.
			cur := dec.ReplaceEvery
			if cur <= 0 {
				cur = krylov.DefaultReplaceEvery
			}
			if cur/2 >= tunerMinCadence {
				next.ReplaceEvery = cur / 2
			} else {
				next.ReplaceEvery = tunerMinCadence
			}
		} else {
			next.Method = tunerStableMethod
			next.S = 1
			next.ReplaceEvery = krylov.DefaultReplaceEvery
		}
	case hidden >= 0 && hidden < tunerLowHidden && dec.S > 1:
		next.Switched = true
		next.Reason = fmt.Sprintf("overlap hid only %.1f%% of reduction latency", 100*hidden)
		next.S = dec.S / 2
	default:
		next.Reason = "confirmed"
	}

	t.mu.Lock()
	if el, ok := t.rec[dec.fp]; ok {
		t.lru.MoveToFront(el)
		ent := el.Value.(*tunerEntry)
		next.Jobs = ent.rec.Jobs + 1
		ent.rec = next
	} else {
		next.Jobs = 1
		t.rec[dec.fp] = t.lru.PushFront(&tunerEntry{fp: dec.fp, rec: next})
		if t.lru.Len() > tunerCap {
			delete(t.rec, t.lru.Remove(t.lru.Back()).(*tunerEntry).fp)
		}
	}
	t.mu.Unlock()

	t.met.tunerRecords.Add(1)
	if next.Switched {
		t.met.tunerSwitches.Add(1)
	}
}

// Snapshot returns a copy of every fingerprint's record, for GET /v1/tuner.
func (t *Tuner) Snapshot() map[string]TunerRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TunerRecord, len(t.rec))
	for fp, el := range t.rec {
		out[fp] = el.Value.(*tunerEntry).rec
	}
	return out
}

// Len returns the number of remembered fingerprints.
func (t *Tuner) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rec)
}

// finiteF reports whether v is a usable finite signal (NaN compares false).
func finiteF(v float64) bool { return v == v && v < 1e308 && v > -1e308 }
