package engine

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

// faultyRequest is a posted reduction whose wait fails, as a comm request
// does when the fabric gives up on a peer.
type faultyRequest struct{ err error }

func (r faultyRequest) Wait() { panic(Abort{Err: r.err}) }

// waitRecorder counts the posts and waits a Meter tells it of.
type waitRecorder struct {
	Recorder
	posts, waits int
}

func (r *waitRecorder) Post(int) int { r.posts++; return r.posts }
func (r *waitRecorder) Wait(int)     { r.waits++ }

// TestFaultPostedWaitUnwinds: a posted wait that fails unwinds through the
// Meter's request with its Abort intact — Recover hands back the fault —
// and books the one failed-reduction rule: the post counted, the wait's
// allreduce_wait span kept, no ledger entry, no recorded wait.
func TestFaultPostedWaitUnwinds(t *testing.T) {
	fault := errors.New("peer gone")
	rec := &waitRecorder{}
	m := &Meter{Tr: obs.New(0), Rec: rec}
	req := m.BookPost(m.Tr.Begin(obs.PhaseIallreducePost), faultyRequest{fault}, 3)
	var err error
	func() {
		defer Recover(&err, nil)
		req.Wait()
	}()
	if err != fault {
		t.Fatalf("Recover returned %v, want the request's fault", err)
	}
	s := m.Tr.Summary()
	if m.C.Iallreduce != 1 || m.C.ReduceWords != 3 || m.C.Allreduce != 0 {
		t.Errorf("counters %+v: want the post booked and nothing else", m.C)
	}
	if got := s.Phases[obs.PhaseAllreduceWait].Count; got != 1 {
		t.Errorf("%d allreduce_wait spans, want the failed wait's 1", got)
	}
	if s.Overlap != (obs.OverlapStats{}) {
		t.Errorf("the failed wait entered the ledger: %+v", s.Overlap)
	}
	if rec.posts != 1 || rec.waits != 0 {
		t.Errorf("recorder heard %d posts and %d waits, want 1 and 0", rec.posts, rec.waits)
	}
}

// TestFaultRecoverPassesOtherPanics: Recover turns only an Abort into an
// error; any other value goes to other, or is re-panicked without one.
func TestFaultRecoverPassesOtherPanics(t *testing.T) {
	var err error
	var got any
	func() {
		defer Recover(&err, func(p any) { got = p })
		panic("bug")
	}()
	if err != nil || got != "bug" {
		t.Fatalf("err=%v other got %v, want nil and the panic value", err, got)
	}
	defer func() {
		if p := recover(); p != "bug" {
			t.Fatalf("re-panicked %v, want the panic value", p)
		}
	}()
	func() {
		defer Recover(&err, nil)
		panic("bug")
	}()
	t.Fatal("a non-Abort panic was swallowed")
}
