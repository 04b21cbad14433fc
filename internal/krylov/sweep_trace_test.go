package krylov

import (
	"testing"

	"repro/internal/obs"
)

// phaseLogEngine records the phases the solver opens.
type phaseLogEngine struct {
	quietEngine
	begun []obs.Phase
}

func (e *phaseLogEngine) BeginPhase(p obs.Phase) obs.Span {
	e.begun = append(e.begun, p)
	return obs.PhaseMark(p)
}
func (e *phaseLogEngine) EndPhase(obs.Span) {}

// TestSStepOuterIterationTracesGram pins what the stitched-trace phase floor
// (obs.CheckChromeEvents: local_dots|gram on every rank track) relies on:
// every outer iteration of every s-step variant opens exactly one
// recurrence_lc span for its LC sweep and one gram span for its payload —
// also when the dots ride the LC pass, as in the pipelined variants.
func TestSStepOuterIterationTracesGram(t *testing.T) {
	n := 64
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for _, cfg := range []sstepConfig{
		{name: "scg", classical: true},
		{name: "pscg", classical: true, precond: true},
		{name: "scg-s"},
		{name: "pipe-scg", pipelined: true},
		{name: "pipe-pscg", pipelined: true, precond: true},
	} {
		for _, recompute := range []bool{cfg.classical, true} {
			e := &phaseLogEngine{quietEngine: quietEngine{n: n}}
			st := newSStepState(e, Defaults(), cfg)
			st.bootstrap(b)
			co, err := st.sw.Step(st.pay, st.buf)
			if err != nil {
				t.Fatal(err)
			}
			e.begun = e.begun[:0]
			st.advance(b, co, recompute)
			count := map[obs.Phase]int{}
			for _, p := range e.begun {
				count[p]++
			}
			wantLC := 1
			if recompute {
				wantLC = 2 // the sweep, and r = b − A·x
			}
			if count[obs.PhaseGram] != 1 || count[obs.PhaseRecurrenceLC] != wantLC {
				t.Errorf("%s recompute=%v: phases %v, want 1 gram and %d recurrence_lc",
					cfg.name, recompute, e.begun, wantLC)
			}
		}
	}
}
