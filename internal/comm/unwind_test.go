package comm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/partition"
)

// solveLoop is a solver's engine traffic reduced to its three waits: a
// product (halo), a blocking reduction and a posted one. It runs iters
// iterations, or until a wait fails when iters < 0; leave, when non-nil,
// runs before the named stage of iteration 3.
func solveLoop(e *Engine, iters int, stage string, leave func()) {
	x := make([]float64, e.NLocal())
	y := make([]float64, e.NLocal())
	for i := range x {
		x[i] = 1
	}
	at := func(it int, s string) {
		if leave != nil && it == 3 && s == stage {
			leave()
		}
	}
	for it := 0; iters < 0 || it < iters; it++ {
		at(it, "halo")
		e.SpMV(y, x)
		at(it, "reduce")
		e.AllreduceSum([]float64{1, 2})
		at(it, "posted")
		e.IallreduceSum([]float64{3}).Wait()
	}
}

// TestRunErrClosesFabricOnUnwind: on a fabric with no receive deadline, a
// rank that unwinds mid-solve — with an engine.Abort or any other panic —
// wakes every peer blocked on it (in a halo, a blocking reduction or a
// posted reduction's progress) with a FaultClosed that wraps the leaver's
// error, and no goroutine outlives the run.
func TestRunErrClosesFabricOnUnwind(t *testing.T) {
	a := grid.NewSquare(12, grid.Star5).Laplacian()
	errLeft := errors.New("rank left mid-solve")
	for _, p := range []int{2, 3} {
		pt := partition.RowBlock(a.Rows, p)
		// Warm the kernel pool so the goroutine baseline is its steady state.
		RunErr(NewEngines(NewFabric(p, 0), a, pt, nil), func(_ int, e *Engine) error {
			solveLoop(e, 2, "", nil)
			return nil
		})
		for _, stage := range []string{"halo", "reduce", "posted"} {
			for _, abort := range []bool{true, false} {
				t.Run(fmt.Sprintf("P=%d/%s/abort=%v", p, stage, abort), func(t *testing.T) {
					base := runtime.NumGoroutine()
					f := NewFabric(p, 0)
					engines := NewEngines(f, a, pt, nil)
					leaver := p - 1
					leave := func() {
						if abort {
							panic(engine.Abort{Err: errLeft})
						}
						panic("rank left mid-solve")
					}
					out := make(chan []error, 1)
					go func() {
						out <- RunErr(engines, func(r int, e *Engine) error {
							if r == leaver {
								solveLoop(e, -1, stage, leave)
							} else {
								solveLoop(e, -1, stage, nil)
							}
							return nil
						})
					}()
					var errs []error
					select {
					case errs = <-out:
					case <-time.After(time.Second):
						t.Fatal("peers of an unwound rank are still blocked after 1 s")
					}
					f.Close()
					left := errs[leaver]
					if left == nil || (abort && left != errLeft) {
						t.Fatalf("leaver's error = %v", left)
					}
					for r, err := range errs {
						if r == leaver {
							continue
						}
						var fe *FaultError
						if !errors.As(err, &fe) || fe.Kind != FaultClosed || !errors.Is(err, left) {
							t.Fatalf("rank %d: %v, want a FaultClosed wrapping %v", r, err, left)
						}
					}
					deadline := time.Now().Add(time.Second)
					for runtime.NumGoroutine() > base {
						if time.Now().After(deadline) {
							t.Fatalf("goroutines: %d > baseline %d", runtime.NumGoroutine(), base)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}

// TestCloseWakesBlockedReceive: a receive still blocked when the fabric
// closes returns a FaultClosed that names no leaving rank.
func TestCloseWakesBlockedReceive(t *testing.T) {
	f := NewFabric(2, 0)
	got := make(chan error, 1)
	go func() {
		_, err := f.recv(0, 1, kindReduce, 0)
		got <- err
	}()
	f.Close()
	select {
	case err := <-got:
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != FaultClosed || fe.Err != nil {
			t.Fatalf("receive on a closed fabric: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a receive outlived Close")
	}
}
