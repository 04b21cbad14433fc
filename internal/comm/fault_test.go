package comm

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/partition"
)

// TestInjectorDeterminism: fault decisions are a pure function of the seed
// and message identity — two injectors with the same seed agree everywhere,
// and a different seed disagrees somewhere.
func TestInjectorDeterminism(t *testing.T) {
	a := &FaultConfig{Seed: 7, DropRate: 0.3, DupRate: 0.3, CorruptRate: 0.3,
		DelayRate: 0.3, DelayMax: time.Millisecond}
	b := &FaultConfig{Seed: 7, DropRate: 0.3, DupRate: 0.3, CorruptRate: 0.3,
		DelayRate: 0.3, DelayMax: time.Millisecond}
	c := &FaultConfig{Seed: 8, DropRate: 0.3, DupRate: 0.3, CorruptRate: 0.3,
		DelayRate: 0.3, DelayMax: time.Millisecond}
	same, diff := true, true
	for seq := 0; seq < 200; seq++ {
		da, db, dc := a.decide(0, 1, kindReduce, seq), b.decide(0, 1, kindReduce, seq), c.decide(0, 1, kindReduce, seq)
		if da != db {
			same = false
		}
		if da != dc {
			diff = false
		}
	}
	if !same {
		t.Fatal("same seed must produce identical decisions")
	}
	if diff {
		t.Fatal("different seeds should diverge over 200 messages")
	}
}

// TestMailboxLeakDetected: a message sent but never received must be reported
// by Close as a typed leak error — and a clean exchange must close clean.
func TestMailboxLeakDetected(t *testing.T) {
	f := NewFabric(2, 0)
	f.send(0, 1, kindReduce, 42, []float64{1, 2})
	err := f.Close()
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != FaultLeak {
		t.Fatalf("want FaultLeak from Close, got %v", err)
	}

	f = NewFabric(2, 0)
	f.send(0, 1, kindReduce, 0, []float64{3})
	if got, err := f.recv(1, 0, kindReduce, 0); err != nil || got[0] != 3 {
		t.Fatalf("recv: %v %v", got, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("clean fabric must close clean, got %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close must be a no-op, got %v", err)
	}
}

// TestCloseCancelsDelayedSends: a latency-delayed delivery scheduled before
// Close must not fire into the torn-down fabric (the timer is cancelled or
// its callback sees closed) — and Close must not report it as a leak, since
// it never landed.
func TestCloseCancelsDelayedSends(t *testing.T) {
	f := NewFabric(2, 5*time.Millisecond)
	f.send(0, 1, kindReduce, 0, []float64{1})
	if err := f.Close(); err != nil {
		t.Fatalf("in-flight delayed send must not leak: %v", err)
	}
	time.Sleep(15 * time.Millisecond) // would fire now if not cancelled
	f.boxes[1].mu.Lock()
	n := len(f.boxes[1].m)
	f.boxes[1].mu.Unlock()
	if n != 0 {
		t.Fatalf("delayed send fired into closed fabric: %d mailbox entries", n)
	}
}

// collectiveUnderFault runs ten allreduces of order-sensitive payloads on a
// faulty fabric and checks every rank's bits against the fault-free tree.
func collectiveUnderFault(t *testing.T, p int, fc *FaultConfig) FaultStats {
	t.Helper()
	f := NewFabric(p, 0).WithFault(fc).WithRecvTimeout(2*time.Millisecond, 50)
	const rounds = 10
	got := make([][][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			for seq := 0; seq < rounds && errs[r] == nil; seq++ {
				buf := append([]float64(nil), payloads(int64(seq), p, 5)[r]...)
				errs[r] = f.allreduceSum(r, seq, buf)
				got[r] = append(got[r], buf)
			}
		}(r)
	}
	wg.Wait()
	for seq := 0; seq < rounds; seq++ {
		want, _ := collect(p, payloads(int64(seq), p, 5), func(f *Fabric, r int, buf []float64) {
			f.allreduceTree(r, 0, buf)
		})
		for r := 0; r < p; r++ {
			if errs[r] != nil {
				t.Fatalf("p=%d rank %d: %v", p, r, errs[r])
			}
			if !sameWords(got[r][seq], want[0]) {
				t.Fatalf("p=%d rank %d seq %d: %v want %v", p, r, seq, got[r][seq], want[0])
			}
		}
	}
	st := f.TotalStats()
	if err := f.Close(); err != nil {
		t.Fatalf("p=%d: close after full recovery: %v", p, err)
	}
	return st
}

// collectivePs: a doubling round (P=4) and the reduce+broadcast tree (P=6)
// must recover from every fault class alike.
var collectivePs = []int{4, 6}

// TestRecvTimeoutResend: with every message dropped, the deadline-aware
// receive path must recover each payload from the retransmit store and the
// allreduce must still produce exact sums.
func TestRecvTimeoutResend(t *testing.T) {
	for _, p := range collectivePs {
		st := collectiveUnderFault(t, p, &FaultConfig{Seed: 3, DropRate: 1.0})
		if st.DropsInjected == 0 || st.Resends == 0 {
			t.Fatalf("p=%d: expected drops and resends, got %s", p, st)
		}
	}
}

// TestChecksumRepairsCorruption: with aggressive bit flips and checksums on,
// every corruption must be detected and repaired from the pristine copy —
// the reduced sums stay exact.
func TestChecksumRepairsCorruption(t *testing.T) {
	for _, p := range collectivePs {
		st := collectiveUnderFault(t, p, &FaultConfig{Seed: 5, CorruptRate: 0.5, Checksum: true})
		if st.FlipsInjected == 0 || st.ChecksumFailures == 0 {
			t.Fatalf("p=%d: expected corruption detected and counted, got %s", p, st)
		}
	}
}

// TestDuplicateFaultDiscarded: with every message delivered twice, the
// second copy must be discarded — exact sums, and nothing left in a mailbox.
func TestDuplicateFaultDiscarded(t *testing.T) {
	for _, p := range collectivePs {
		st := collectiveUnderFault(t, p, &FaultConfig{Seed: 9, DupRate: 1.0})
		if st.DupsInjected == 0 {
			t.Fatalf("p=%d: expected duplicates, got %s", p, st)
		}
	}
}

// TestCollectiveTimeoutTyped: a rank that never joins must cost the others a
// typed *FaultError after the deadline — in a doubling round and in the tree
// — never a hang.
func TestCollectiveTimeoutTyped(t *testing.T) {
	for _, p := range collectivePs {
		f := NewFabric(p, 0).WithRecvTimeout(time.Millisecond, 3)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p-1; r++ { // the last rank deserts
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = f.allreduceSum(r, 0, []float64{1})
			}(r)
		}
		wg.Wait()
		typed := 0
		for r := 0; r < p-1; r++ {
			var fe *FaultError
			if errors.As(errs[r], &fe) && (fe.Kind == FaultTimeout || fe.Kind == FaultMismatch) {
				typed++
			} else if errs[r] != nil {
				t.Fatalf("p=%d rank %d: untyped failure %v", p, r, errs[r])
			}
		}
		if typed == 0 {
			t.Fatalf("p=%d: nobody noticed the deserter: %v", p, errs)
		}
		f.Close()
	}
}

// TestDeadlockDiagnostic: ranks entering different collectives must produce a
// typed mismatched-collective error naming every rank's wait — not a hang.
func TestDeadlockDiagnostic(t *testing.T) {
	const p = 2
	f := NewFabric(p, 0).WithRecvTimeout(2*time.Millisecond, 3)
	var wg sync.WaitGroup
	wg.Add(p)
	errs := make([]error, p)
	go func() { // rank 0 joins collective seq 0
		defer wg.Done()
		errs[0] = f.allreduceSum(0, 0, []float64{1})
	}()
	go func() { // rank 1 skipped ahead to seq 5 — an SPMD divergence bug
		defer wg.Done()
		errs[1] = f.allreduceSum(1, 5, []float64{1})
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("mismatched collectives hung instead of erroring")
	}
	var fe *FaultError
	if !errors.As(errs[0], &fe) {
		t.Fatalf("rank 0 should get a typed FaultError, got %v", errs[0])
	}
	if fe.Kind != FaultMismatch && fe.Kind != FaultTimeout {
		t.Fatalf("unexpected kind %v", fe.Kind)
	}
	f.Close()
}

// TestStragglerAllreduce: a straggler rank's jittered sends slow the
// collective but never break it.
func TestStragglerAllreduce(t *testing.T) {
	const p = 4
	f := NewFabric(p, 0).
		WithFault(&FaultConfig{Seed: 11, StragglerRank: 2, StragglerJitter: 500 * time.Microsecond}).
		WithRecvTimeout(20*time.Millisecond, 50)
	var wg sync.WaitGroup
	wg.Add(p)
	sums := make([]float64, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			for seq := 0; seq < 5; seq++ {
				buf := []float64{1}
				if err := f.allreduceSum(r, seq, buf); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				sums[r] = buf[0]
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if sums[r] != p {
			t.Fatalf("rank %d sum %g want %d", r, sums[r], p)
		}
	}
	if f.TotalStats().DelaysInjected == 0 {
		t.Fatal("straggler jitter should have been injected")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSpMVSendBufferReuse: repeated halo exchanges through the reused
// per-neighbor double buffers must keep matching the sequential product.
func TestSpMVSendBufferReuse(t *testing.T) {
	g := grid.NewSquare(9, grid.Star5)
	a := g.Laplacian()
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	// Sequential reference: y_k = A^k·x for k = 1..6.
	want := make([]float64, n)
	cur := append([]float64(nil), x...)
	const rounds = 6
	refs := make([][]float64, rounds)
	for k := 0; k < rounds; k++ {
		a.MulVec(want, cur)
		refs[k] = append([]float64(nil), want...)
		cur, want = want, cur
	}

	const p = 3
	pt := partition.RowBlock(n, p)
	f := NewFabric(p, 0)
	engines := NewEngines(f, a, pt, nil)
	xs := Scatter(pt, x)
	outs := make([][][]float64, p)
	Run(engines, func(r int, e *Engine) {
		src := xs[r]
		outs[r] = make([][]float64, rounds)
		for k := 0; k < rounds; k++ {
			dst := make([]float64, e.NLocal())
			e.SpMV(dst, src)
			outs[r][k] = dst
			src = dst
		}
	})
	for k := 0; k < rounds; k++ {
		parts := make([][]float64, p)
		for r := 0; r < p; r++ {
			parts[r] = outs[r][k]
		}
		got := Gather(pt, parts)
		for i := range got {
			if got[i] != refs[k][i] {
				t.Fatalf("round %d row %d: %g want %g", k, i, got[i], refs[k][i])
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestFaultsInDeepExchange: the matrix powers kernel's single deep exchange
// rides the same send/recv as the shallow halo, so drops, duplicates and
// checksummed corruption must be recovered with the block's bits intact —
// over enough blocks that both parity send buffers are resent from — and a
// deserting neighbor must surface as a typed error from RunErr.
func TestFaultsInDeepExchange(t *testing.T) {
	a := thinGrid()
	const p, depth, blocks = 3, 3, 5
	pt := partition.RowBlock(a.Rows, p)
	xs := Scatter(pt, sinVector(a.Rows))
	wantR, wantU := powersBlock(t, NewEngines(NewFabric(p, 0), a, pt, jacobiPC), xs, depth, true, 0.37, false, false)

	faults := map[string]*FaultConfig{
		"drop":    {Seed: 3, DropRate: 1.0},
		"dup":     {Seed: 9, DupRate: 1.0},
		"corrupt": {Seed: 5, CorruptRate: 0.5, Checksum: true},
	}
	for name, fc := range faults {
		f := NewFabric(p, 0).WithFault(fc).WithRecvTimeout(2*time.Millisecond, 50)
		engines := NewEngines(f, a, pt, jacobiPC)
		for k := 0; k < blocks; k++ {
			gotR, gotU := powersBlock(t, engines, xs, depth, true, 0.37, true, false)
			sameLevels(t, name+" r", gotR, wantR)
			sameLevels(t, name+" u", gotU, wantU)
		}
		st := f.TotalStats()
		if st.DropsInjected+st.DupsInjected+st.FlipsInjected == 0 ||
			(name == "drop" && st.Resends == 0) || (name == "corrupt" && st.ChecksumFailures == 0) {
			t.Fatalf("%s: faults not injected or not recovered: %s", name, st)
		}
		if c := engines[1].Counters(); name == "drop" && c.CommResends == 0 {
			t.Fatalf("drop: resends must reach the engine counters: %+v", c)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("%s: close after full recovery: %v", name, err)
		}
	}

	f := NewFabric(p, 0).WithRecvTimeout(time.Millisecond, 2)
	engines := NewEngines(f, a, pt, jacobiPC)
	errs := RunErr(engines, func(r int, e *Engine) error {
		if r == 1 {
			return nil // the middle rank deserts the exchange
		}
		dst := allocLevels(depth, e.NLocal())
		e.SpMVPowers(dst, nil, xs[r], 1)
		return nil
	})
	for _, r := range []int{0, 2} {
		var fe *FaultError
		if !errors.As(errs[r], &fe) || fe.Kind != FaultTimeout {
			t.Fatalf("rank %d should get a typed timeout, got %v", r, errs[r])
		}
	}
	f.Close()
}

// TestRunErrRecoversFaultPanic: a fabric failure inside an engine kernel must
// come back as that rank's error from RunErr, not a process crash.
func TestRunErrRecoversFaultPanic(t *testing.T) {
	g := grid.NewSquare(6, grid.Star5)
	a := g.Laplacian()
	const p = 2
	pt := partition.RowBlock(a.Rows, p)
	f := NewFabric(p, 0).WithRecvTimeout(time.Millisecond, 2)
	engines := NewEngines(f, a, pt, nil)
	errs := RunErr(engines, func(r int, e *Engine) error {
		if r == 1 {
			return nil // rank 1 deserts the collective
		}
		e.AllreduceSum([]float64{1})
		return nil
	})
	var fe *FaultError
	if !errors.As(errs[0], &fe) {
		t.Fatalf("rank 0 should surface a typed FaultError, got %v", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("rank 1 should be clean, got %v", errs[1])
	}
	f.Close()
}
