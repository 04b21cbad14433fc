package perfmodel

import (
	"testing"

	"repro/internal/krylov"
	"repro/internal/sim"
)

// TestMethodListsKnown: every Table I row names a registered solver, except
// PIPELCG, which the paper tabulates and this repository does not implement.
func TestMethodListsKnown(t *testing.T) {
	for _, m := range AllMethods {
		if _, err := krylov.MethodByName(string(m)); (err != nil) != (m == PIPELCG) {
			t.Errorf("%s: registry lookup error = %v", m, err)
		}
	}
}

func poissonProblem() Problem {
	n := 1000 * 1000
	return Problem{N: n, NNZ: 125 * n, PCFlops: float64(n), PCBytes: 24 * float64(n), ReduceWords: SStepPayloadWords(3)}
}

func TestTableIMatchesPaperAtS3(t *testing.T) {
	rows := TableI(3)
	want := map[Method]struct {
		allr, flops, mem float64
	}{
		PCG:        {9, 36, 4},
		PIPECG:     {3, 66, 9},
		PIPELCG:    {3, 6*9 + 14*3, 14}, // 96
		PIPECG3:    {2, 180, 25},
		PIPECGOATI: {2, 160, 19},
		PsCG:       {1, 2*9 + 12 + 2, 8},                   // 32, memory 2s+2
		PIPEPsCG:   {1, 4*27 + 12*9 + 6 + 5, 4*9 + 36 + 5}, // 227, 77
	}
	if len(rows) != len(want) {
		t.Fatalf("row count %d", len(rows))
	}
	for _, r := range rows {
		w := want[r.Method]
		if r.Allreduces != w.allr || r.Flops != w.flops || r.Memory != w.mem {
			t.Errorf("%s: got (%g, %g, %g) want (%g, %g, %g)",
				r.Method, r.Allreduces, r.Flops, r.Memory, w.allr, w.flops, w.mem)
		}
	}
}

func TestPredictOrderingLowVsHighP(t *testing.T) {
	m := sim.CrayXC40()
	pr := poissonProblem()
	s := 3

	// At one node, PCG should be competitive (allreduce cheap relative to
	// compute) — specifically no worse than 2x PIPE-PsCG.
	lo := PredictPerSIterations(m, pr, PCG, s, 24)
	loPP := PredictPerSIterations(m, pr, PIPEPsCG, s, 24)
	if lo > 2*loPP {
		t.Fatalf("at 1 node PCG %.3g vs PIPE-PsCG %.3g — model badly calibrated", lo, loPP)
	}

	// At 120 nodes the paper's ordering must hold:
	// PIPE-PsCG < PIPECG-OATI ≤ PIPECG3 < PIPECG < PCG, and PsCG < PCG.
	const p = 2880
	tm := map[Method]float64{}
	for _, meth := range AllMethods {
		tm[meth] = PredictPerSIterations(m, pr, meth, s, p)
	}
	if !(tm[PIPEPsCG] < tm[PIPECGOATI]) {
		t.Errorf("PIPE-PsCG %.3g should beat OATI %.3g at high P", tm[PIPEPsCG], tm[PIPECGOATI])
	}
	if !(tm[PIPECGOATI] <= tm[PIPECG3]) {
		t.Errorf("OATI %.3g should beat PIPECG3 %.3g", tm[PIPECGOATI], tm[PIPECG3])
	}
	if !(tm[PIPECG3] < tm[PIPECG]) {
		t.Errorf("PIPECG3 %.3g should beat PIPECG %.3g at high P", tm[PIPECG3], tm[PIPECG])
	}
	if !(tm[PIPECG] < tm[PCG]) {
		t.Errorf("PIPECG %.3g should beat PCG %.3g", tm[PIPECG], tm[PCG])
	}
	if !(tm[PsCG] < tm[PCG]) {
		t.Errorf("PsCG %.3g should beat PCG %.3g with a cheap PC", tm[PsCG], tm[PCG])
	}
}

func TestCrossoverExists(t *testing.T) {
	m := sim.CrayXC40()
	pr := poissonProblem()
	cands := []int{24, 240, 480, 960, 1440, 1920, 2400, 2880}
	p := CrossoverP(m, pr, PIPEPsCG, PIPECG, 3, cands)
	if p == -1 {
		t.Fatal("PIPE-PsCG never crosses PIPECG — model broken")
	}
	if p >= 2880 {
		t.Fatalf("crossover too late: %d", p)
	}
	if CrossoverP(m, pr, PCG, PCG, 3, cands) != -1 {
		t.Fatal("a method never strictly beats itself")
	}
	if CrossoverP(m, Problem{N: 10, NNZ: 10, ReduceWords: 1}, PCG, PIPEPsCG, 3, []int{2880}) != -1 {
		t.Fatal("expected no crossover for a tiny problem at one candidate")
	}
}

func TestChooseSGrowsWithP(t *testing.T) {
	m := sim.CrayXC40()
	pr := poissonProblem()
	sLow, tLow := ChooseS(m, pr, 24, 8)
	sHigh, tHigh := ChooseS(m, pr, 3360, 8)
	if sHigh < sLow {
		t.Fatalf("optimal s should not shrink with P: s(24)=%d s(3360)=%d", sLow, sHigh)
	}
	if tLow <= 0 || tHigh <= 0 {
		t.Fatal("nonpositive predicted times")
	}
	// The paper's Fig. 3 conclusion: larger s pays off only at high core
	// counts; at one node small s must win.
	if sLow > 3 {
		t.Fatalf("at one node the tuner picked s=%d; expected small s", sLow)
	}
}

func TestSStepPayloadWords(t *testing.T) {
	if SStepPayloadWords(3) != 6+9+3+2 {
		t.Fatal("payload size wrong")
	}
}

func TestPredictUnknownMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PredictPerSIterations(sim.CrayXC40(), poissonProblem(), Method("nope"), 3, 4)
}
