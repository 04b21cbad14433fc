// Package comm implements the distributed-memory runtime the paper assumes
// from MPI, using goroutines as ranks: point-to-point message delivery, a
// blocking allreduce (MPI_Allreduce), a genuinely asynchronous non-blocking
// allreduce (MPI_Iallreduce with progression, the primitive PIPE-sCG
// pipelines against), halo exchange for the distributed SPMV and the
// single deep exchange of the matrix powers kernel.
//
// The allreduce is recursive doubling — ⌈log₂P⌉ symmetric exchange rounds —
// when P is a power of two, and a binomial reduce to rank 0 plus broadcast
// (twice the hops) otherwise. Both add the partial sums of adjacent aligned
// rank blocks as lower + upper, so for a power-of-two P every rank computes
// the bits the tree computes on rank 0: which one runs is invisible in the
// numerics (see allreduceDoubling).
//
// An optional injected per-hop latency emulates interconnect latency, so the
// benefit of overlapping communication with computation is observable on a
// single machine: while a reduction "travels" (a timer), the rank's compute
// goroutine keeps the CPU.
//
// The fabric is optionally imperfect: WithFault installs a deterministic
// seed-driven injector (drops, duplicates, delays, straggler jitter, bit
// flips — see FaultConfig), and WithRecvTimeout arms the deadline-aware
// receive path that survives it: a timed-out receive recovers the pristine
// payload from the sender-side retransmit store (ack/resend), checksummed
// payloads detect in-flight corruption, and an exhausted deadline produces a
// typed *FaultError carrying every rank's current collective status instead
// of a frozen process. With neither option set the fabric is bit-identical
// to the perfect interconnect. Deadline or not, a rank that unwinds under
// RunErr wakes every receive blocked on the fabric with a FaultClosed error,
// so no peer waits on a rank that left.
package comm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// message kinds, part of the matching key so collectives, halo exchange and
// user messages never cross-match.
const (
	kindReduce = iota
	kindBcast
	kindHalo
)

type key struct {
	from, kind, seq int
}

// mailbox matches sends to receives by (from, kind, seq). Each key carries at
// most one live message plus (under fault injection) one duplicate; channels
// are buffered so delivery never blocks. When the fabric tracks faults,
// consumed keys are remembered so late or duplicated deliveries are discarded
// instead of re-creating channels nobody will ever drain — the mailbox leak.
type mailbox struct {
	mu       sync.Mutex
	m        map[key]chan []float64
	consumed map[key]struct{} // nil unless the fabric tracks faults
}

func (mb *mailbox) channel(k key) chan []float64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	ch, ok := mb.m[k]
	if !ok {
		ch = make(chan []float64, 2)
		mb.m[k] = ch
	}
	return ch
}

// deliver places data into the key's channel unless the key was already
// consumed (late/duplicate copy — discarded). The non-blocking send can only
// hit a full buffer when more than two copies of one message exist, which the
// injector never produces.
func (mb *mailbox) deliver(k key, data []float64) {
	mb.mu.Lock()
	if mb.consumed != nil {
		if _, done := mb.consumed[k]; done {
			mb.mu.Unlock()
			return
		}
	}
	ch, ok := mb.m[k]
	if !ok {
		ch = make(chan []float64, 2)
		mb.m[k] = ch
	}
	mb.mu.Unlock()
	select {
	case ch <- data:
	default:
	}
}

// consume retires a key after its message was received (or recovered from
// the retransmit store): the channel entry is dropped and, under fault
// tracking, the key is remembered so stragglers cannot resurrect it.
func (mb *mailbox) consume(k key) {
	mb.mu.Lock()
	delete(mb.m, k)
	if mb.consumed != nil {
		mb.consumed[k] = struct{}{}
	}
	mb.mu.Unlock()
}

// sentKey identifies one in-flight payload in the retransmit store.
type sentKey struct {
	to int
	k  key
}

// parked is a pristine payload in the retransmit store. clean marks a
// message the injector did not drop, delay or corrupt: it is on its way, so
// a receiver waits for it instead of resending it.
type parked struct {
	data  []float64
	clean bool
}

// Fabric connects P ranks. It is safe for concurrent use by all ranks.
type Fabric struct {
	p          int
	hopLatency time.Duration

	fault       *FaultConfig
	recvTimeout time.Duration
	recvRetries int

	boxes []*mailbox

	// done closes once: when a rank's body unwinds (RunErr) or the fabric
	// closes. Every blocked receive selects on it, so no peer waits on a
	// rank that will never send again. leaver and left are the rank whose
	// unwind closed it (-1 for Close) and that rank's error, written before
	// the close and read only after it.
	done     chan struct{}
	doneOnce sync.Once
	leaver   int
	left     error

	mu      sync.Mutex
	closed  bool
	timers  map[int]*time.Timer
	timerID int
	sent    map[sentKey]parked // pristine payloads until acked
	status  []rankStatus
	stats   []FaultStats

	// transit accumulates, per SOURCE rank, the message count and total
	// modeled transit latency (hop + injected fault delay) of its sends —
	// the receiver-side observable a per-rank skew detector needs to pin a
	// network straggler whose sends arrive late (a real MPI port would
	// timestamp messages; this fabric knows the delay it models). Values are
	// deterministic under a seeded fault config: no wall clock is read.
	transit []transitCell
}

// transitCell is one source rank's send-transit accumulator.
type transitCell struct {
	msgs    atomic.Int64
	delayNS atomic.Int64
}

// Transit is the per-source send-latency aggregate returned by TransitStats.
type Transit struct {
	Msgs    int64 // messages sent by this rank
	DelayNS int64 // total modeled transit latency its messages incurred
}

// MeanNS is the average modeled transit latency per message, 0 when the rank
// sent nothing.
func (t Transit) MeanNS() int64 {
	if t.Msgs == 0 {
		return 0
	}
	return t.DelayNS / t.Msgs
}

// TransitStats reports, per source rank, how many messages it sent and the
// total modeled transit latency those messages incurred — the attribution
// signal for send-delayed stragglers (obs.AnalyzeSkewTransit).
func (f *Fabric) TransitStats() []Transit {
	out := make([]Transit, f.p)
	for r := range out {
		out[r] = Transit{
			Msgs:    f.transit[r].msgs.Load(),
			DelayNS: f.transit[r].delayNS.Load(),
		}
	}
	return out
}

// NewFabric creates a fabric for p ranks with the given per-hop injected
// latency (0 means in-memory speed).
func NewFabric(p int, hopLatency time.Duration) *Fabric {
	if p < 1 {
		panic(fmt.Sprintf("comm: bad rank count %d", p))
	}
	f := &Fabric{
		p: p, hopLatency: hopLatency,
		boxes:   make([]*mailbox, p),
		done:    make(chan struct{}),
		timers:  map[int]*time.Timer{},
		status:  make([]rankStatus, p),
		stats:   make([]FaultStats, p),
		transit: make([]transitCell, p),
	}
	for i := range f.boxes {
		f.boxes[i] = &mailbox{m: map[key]chan []float64{}}
	}
	return f
}

// WithFault installs the fault injector. Dropping messages without a receive
// deadline would hang forever, so enabling drops arms a default deadline
// (50ms × 100 retries) unless WithRecvTimeout chose one already.
func (f *Fabric) WithFault(fc *FaultConfig) *Fabric {
	f.fault = fc
	if fc != nil && fc.DropRate > 0 && f.recvTimeout <= 0 {
		f.recvTimeout, f.recvRetries = 50*time.Millisecond, 100
	}
	f.syncTracking()
	return f
}

// WithRecvTimeout arms the deadline-aware receive path: a receive waits up to
// one hop plus d, then tries to recover the payload from the retransmit
// store, and retries the wait up to `retries` times before returning a typed
// *FaultError with the deadlock diagnostic. d ≤ 0 restores block-forever
// semantics.
func (f *Fabric) WithRecvTimeout(d time.Duration, retries int) *Fabric {
	f.recvTimeout, f.recvRetries = d, retries
	f.syncTracking()
	return f
}

// tracking reports whether the fabric keeps the retransmit store and the
// consumed-key sets (any imperfection or deadline is configured).
func (f *Fabric) tracking() bool { return f.fault != nil || f.recvTimeout > 0 }

// checksums reports whether payloads carry a verification word.
func (f *Fabric) checksums() bool { return f.fault != nil && f.fault.Checksum }

func (f *Fabric) syncTracking() {
	if !f.tracking() {
		return
	}
	f.mu.Lock()
	if f.sent == nil {
		f.sent = map[sentKey]parked{}
	}
	f.mu.Unlock()
	for _, mb := range f.boxes {
		mb.mu.Lock()
		if mb.consumed == nil {
			mb.consumed = map[key]struct{}{}
		}
		mb.mu.Unlock()
	}
}

// P returns the number of ranks.
func (f *Fabric) P() int { return f.p }

// Stats returns a copy of the fault statistics observed by one rank.
func (f *Fabric) Stats(rank int) FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats[rank]
}

// TotalStats aggregates fault statistics across all ranks.
func (f *Fabric) TotalStats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var t FaultStats
	for _, s := range f.stats {
		t.add(s)
	}
	return t
}

// send delivers data to rank `to` after the injected hop latency plus any
// fault-model delay. The data slice is owned by the receiver after the call;
// senders may reuse it only under the halo double-buffer discipline (see
// ghostExchange). Under fault tracking a pristine copy is parked in the
// retransmit store until the receiver acks, so drops and corruption are
// recoverable.
func (f *Fabric) send(from, to, kind, seq int, data []float64) {
	k := key{from, kind, seq}
	dec := faultDecision{corruptWord: -1}
	if f.fault != nil {
		dec = f.fault.decide(from, to, kind, seq)
	}
	if f.tracking() {
		p := parked{data: append([]float64(nil), data...),
			clean: !dec.drop && dec.delay == 0 && dec.corruptWord < 0}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		f.sent[sentKey{to, k}] = p
		f.mu.Unlock()
	}
	wire := data
	if f.checksums() {
		// Full-slice expression forces the append to allocate, keeping the
		// wire image independent of the (possibly reused) sender buffer.
		wire = append(data[:len(data):len(data)], math.Float64frombits(checksum(data)))
	}
	if f.fault != nil {
		f.mu.Lock()
		st := &f.stats[from]
		if dec.drop {
			st.DropsInjected++
		}
		if dec.dup {
			st.DupsInjected++
		}
		if dec.delay > 0 {
			st.DelaysInjected++
		}
		if dec.corruptWord >= 0 {
			st.FlipsInjected++
		}
		f.mu.Unlock()
		if dec.corruptWord >= 0 {
			w := append([]float64(nil), wire...)
			i := dec.corruptWord % len(w)
			w[i] = math.Float64frombits(math.Float64bits(w[i]) ^ (1 << (dec.corruptBit % 64)))
			wire = w
		}
		if dec.drop {
			return // the retransmit store is the only surviving copy
		}
	}
	delay := f.hopLatency + dec.delay
	f.transit[from].msgs.Add(1)
	f.transit[from].delayNS.Add(int64(delay))
	f.deliver(to, k, wire, delay)
	if dec.dup {
		f.deliver(to, k, wire, delay+delay/2)
	}
}

// deliver places the wire image into the receiver's mailbox, now or through a
// cancellable timer. Close stops pending timers and the callback re-checks
// closed, so injected-latency tests never fire sends into a torn-down fabric.
func (f *Fabric) deliver(to int, k key, data []float64, delay time.Duration) {
	if delay <= 0 {
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return
		}
		f.boxes[to].deliver(k, data)
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	id := f.timerID
	f.timerID++
	t := time.AfterFunc(delay, func() {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return
		}
		delete(f.timers, id)
		f.mu.Unlock()
		f.boxes[to].deliver(k, data)
	})
	f.timers[id] = t
	f.mu.Unlock()
}

// takeSent removes and returns the pristine payload parked for (me, k), the
// ack/resend primitive: the normal receive path calls it as the ack, the
// timeout path as the resend.
func (f *Fabric) takeSent(me int, k key) ([]float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sent == nil {
		return nil, false
	}
	sk := sentKey{me, k}
	p, ok := f.sent[sk]
	if ok {
		delete(f.sent, sk)
	}
	return p.data, ok
}

// inFlight reports whether the message parked for (me, k) is a clean one
// still on its way.
func (f *Fabric) inFlight(me int, k key) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[sentKey{me, k}].clean
}

// verify strips and checks the checksum word. It returns the payload and
// whether the checksum held (payloads are always passed through — corruption
// without a recoverable copy is the solver ladder's problem, not a hang).
func (f *Fabric) verify(wire []float64) ([]float64, bool) {
	if !f.checksums() {
		return wire, true
	}
	if len(wire) < 1 {
		return wire, false
	}
	payload := wire[:len(wire)-1]
	ok := math.Float64bits(wire[len(wire)-1]) == checksum(payload)
	return payload, ok
}

func (f *Fabric) setStatus(rank int, st rankStatus) {
	f.mu.Lock()
	f.status[rank] = st
	f.mu.Unlock()
}

// recv blocks until the matching message arrives or done closes (a rank
// unwound, or the fabric closed: a FaultClosed error). On an imperfect
// fabric the configured deadline+retries also end the wait: the pristine
// payload is recovered from the retransmit store (resend) or a typed
// *FaultError carrying the deadlock diagnostic is returned. Hop latency
// alone costs no timeout: a message arrives no sooner than a hop after it
// is sent, so each deadline runs a hop past the configured one, and a
// message the injector left alone is never resent — once it is sent the
// receiver waits for it. Checksummed payloads that fail verification are repaired from the store
// when possible and counted either way.
func (f *Fabric) recv(me, from, kind, seq int) ([]float64, error) {
	k := key{from, kind, seq}
	mb := f.boxes[me]
	ch := mb.channel(k)

	accept := func(wire []float64) []float64 {
		payload, ok := f.verify(wire)
		if !f.tracking() {
			mb.consume(k)
			return payload
		}
		pristine, stored := f.takeSent(me, k) // the ack
		if !ok {
			f.mu.Lock()
			f.stats[me].ChecksumFailures++
			f.mu.Unlock()
			if stored {
				payload = pristine // repaired in place of the corrupted copy
			}
		}
		mb.consume(k)
		return payload
	}

	if f.recvTimeout <= 0 {
		select {
		case wire := <-ch:
			return accept(wire), nil
		case <-f.done:
			return nil, f.closedError(me, from, kind, seq)
		}
	}

	f.setStatus(me, rankStatus{waiting: true, from: from, kind: kind, seq: seq})
	defer f.setStatus(me, rankStatus{})

	deadline := f.hopLatency + f.recvTimeout
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for attempt := 0; ; {
		select {
		case wire := <-ch:
			return accept(wire), nil
		case <-f.done:
			return nil, f.closedError(me, from, kind, seq)
		case <-timer.C:
			if f.inFlight(me, k) {
				timer.Reset(deadline)
				continue
			}
			f.mu.Lock()
			f.stats[me].Timeouts++
			f.mu.Unlock()
			if pristine, ok := f.takeSent(me, k); ok {
				// The sender did send; the injector dropped, corrupted or
				// delayed the copy. Recover the parked pristine payload
				// (resend).
				f.mu.Lock()
				f.stats[me].Resends++
				f.mu.Unlock()
				mb.consume(k)
				return pristine, nil
			}
			if attempt >= f.recvRetries {
				return nil, f.deadlockError(me, from, kind, seq)
			}
			attempt++
			timer.Reset(deadline)
		}
	}
}

// leave closes done on behalf of rank (-1: the fabric closed), whose error
// err every woken receive wraps. Only the first call counts.
func (f *Fabric) leave(rank int, err error) {
	f.doneOnce.Do(func() {
		f.leaver, f.left = rank, err
		close(f.done)
	})
}

// closedError is what a receive woken by done returns: a FaultClosed naming
// the rank that left and wrapping its error.
func (f *Fabric) closedError(me, from, kind, seq int) *FaultError {
	where := fmt.Sprintf("(%s,seq=%d,from=%d)", kindName(kind), seq, from)
	if f.leaver < 0 {
		return &FaultError{Kind: FaultClosed, Rank: me, Msg: "fabric closed while waiting " + where}
	}
	return &FaultError{Kind: FaultClosed, Rank: me, Err: f.left,
		Msg: fmt.Sprintf("rank %d left while waiting %s", f.leaver, where)}
}

// deadlockError snapshots every rank's current wait and classifies the hang:
// ranks stuck on different collectives is a mismatched-collective bug; ranks
// stuck on the same one means the peer truly never sent.
func (f *Fabric) deadlockError(me, from, kind, seq int) *FaultError {
	f.mu.Lock()
	sts := append([]rankStatus(nil), f.status...)
	f.mu.Unlock()
	k := FaultTimeout
	if mismatched(sts) {
		k = FaultMismatch
	}
	return &FaultError{Kind: k, Rank: me, Msg: fmt.Sprintf(
		"gave up waiting (%s,seq=%d,from=%d) after %d×%v; rank status: %s",
		kindName(kind), seq, from, f.recvRetries+1, f.hopLatency+f.recvTimeout, formatStatuses(sts))}
}

// Close tears the fabric down: wakes any receive still blocked, cancels
// every pending delivery timer, rejects further sends, drains the
// mailboxes, and reports messages that were sent but never received (the
// mailbox leak) as a *FaultError of kind FaultLeak. Closing an
// already-closed fabric is a no-op returning nil.
func (f *Fabric) Close() error {
	f.leave(-1, nil)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	timers := f.timers
	f.timers = map[int]*time.Timer{}
	f.sent = nil
	f.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	var leaked []string
	for r, mb := range f.boxes {
		mb.mu.Lock()
		for k, ch := range mb.m {
			// Drain buffered payloads; a non-empty channel is a message that
			// was delivered and never received.
			n := 0
			for {
				select {
				case <-ch:
					n++
					continue
				default:
				}
				break
			}
			if n > 0 {
				leaked = append(leaked, fmt.Sprintf(
					"rank %d: %d undelivered (%s,seq=%d,from=%d)", r, n, kindName(k.kind), k.seq, k.from))
			}
		}
		mb.m = map[key]chan []float64{}
		mb.mu.Unlock()
	}
	if len(leaked) > 0 {
		return &FaultError{Kind: FaultLeak, Rank: -1,
			Msg: fmt.Sprintf("%d leaked mailbox entries: %s", len(leaked), joinLimited(leaked, 8))}
	}
	return nil
}

// joinLimited joins up to max entries, eliding the rest.
func joinLimited(items []string, max int) string {
	if len(items) <= max {
		out := ""
		for i, s := range items {
			if i > 0 {
				out += "; "
			}
			out += s
		}
		return out
	}
	return joinLimited(items[:max], max) + fmt.Sprintf("; … and %d more", len(items)-max)
}

// allreduceSum sums buf element-wise across ranks: every rank ends with the
// same bits. All ranks must call it with the same seq and equal-length
// buffers. On an imperfect fabric it returns a typed *FaultError when a
// contribution can neither arrive nor be recovered.
//
// The collective is chosen here, from P alone. A power-of-two P runs
// recursive doubling — ⌈log₂P⌉ hops, the G(P,m) the sim model prices, and
// every rank leaves the collective at the same time. Any other P runs the
// binomial reduce + broadcast (2·⌈log₂P⌉ hops): doubling would need an extra
// fold-in round there, and that round would change the summation order.
func (f *Fabric) allreduceSum(rank, seq int, buf []float64) error {
	if f.doubling() {
		return f.allreduceDoubling(rank, seq, buf, false)
	}
	return f.allreduceTree(rank, seq, buf)
}

// doubling is the collective choice: recursive doubling iff P is a power of
// two.
func (f *Fabric) doubling() bool { return f.p&(f.p-1) == 0 }

// allreduceDoubling is recursive doubling for power-of-two P: at round k
// every rank swaps its partial with rank^2^k and both add the two. Before
// round k a rank holds the sum of its aligned block of 2^k ranks; the
// partner holds the adjacent block's, and both compute lower block + upper
// block, operands in that order. That is the addition the binomial tree
// performs at the block's root in its round k, so by induction every rank
// ends with exactly the bits allreduceTree leaves on rank 0 and broadcasts.
// The rounds share kindReduce and seq: the partner differs every round, so
// (from, kind, seq) stays unique. posted means the caller already sent the
// first round's payload (sendPartial).
func (f *Fabric) allreduceDoubling(rank, seq int, buf []float64, posted bool) error {
	for mask := 1; mask < f.p; mask <<= 1 {
		partner := rank ^ mask
		if !posted {
			f.sendPartial(rank, partner, seq, buf)
		}
		posted = false
		in, err := f.recv(rank, partner, kindReduce, seq)
		if err != nil {
			return err
		}
		if rank&mask == 0 {
			for i, v := range in {
				buf[i] += v
			}
		} else {
			for i, v := range in {
				buf[i] = v + buf[i]
			}
		}
	}
	return nil
}

// sendPartial ships a copy of the running partial sum: buf keeps changing,
// the payload belongs to the receiver.
func (f *Fabric) sendPartial(from, to, seq int, buf []float64) {
	out := make([]float64, len(buf))
	copy(out, buf)
	f.send(from, to, kindReduce, seq, out)
}

// allreduceTree performs a binomial-tree reduce to rank 0 followed by a
// binomial-tree broadcast. The summation order is deterministic for a given
// P.
func (f *Fabric) allreduceTree(rank, seq int, buf []float64) error {
	p := f.p
	if p == 1 {
		return nil
	}
	// Reduce: at round k (mask = 1<<k), ranks with bit k set send to
	// rank^mask and leave; others receive if the partner exists.
	for mask := 1; mask < p; mask <<= 1 {
		if rank&mask != 0 {
			dst := rank &^ mask
			out := make([]float64, len(buf))
			copy(out, buf)
			f.send(rank, dst, kindReduce, seq, out)
			break
		}
		src := rank | mask
		if src < p {
			in, err := f.recv(rank, src, kindReduce, seq)
			if err != nil {
				return err
			}
			for i, v := range in {
				buf[i] += v
			}
		}
	}
	// Broadcast from rank 0 down the same tree, highest mask first.
	top := 1
	for top < p {
		top <<= 1
	}
	for mask := top >> 1; mask >= 1; mask >>= 1 {
		if rank&(mask-1) == 0 { // participant at this round
			if rank&mask != 0 {
				src := rank &^ mask
				in, err := f.recv(rank, src, kindBcast, seq)
				if err != nil {
					return err
				}
				copy(buf, in)
			} else if dst := rank | mask; dst < p {
				out := make([]float64, len(buf))
				copy(out, buf)
				f.send(rank, dst, kindBcast, seq, out)
			}
		}
	}
	return nil
}

// Request is a pending non-blocking allreduce.
type Request struct {
	done chan struct{}
	err  error
}

// Wait blocks until the reduction has completed and the buffer passed to
// iallreduceSum holds the global sums. A fabric failure unwinds as an
// engine.Abort that comm.RunErr converts back into an error.
func (r *Request) Wait() {
	<-r.done
	if r.err != nil {
		panic(engine.Abort{Err: r.err})
	}
}

// iallreduceSum starts the same reduction on a background goroutine — the
// asynchronous progress a pipelined method overlaps compute with. Under
// doubling the first round's payload leaves here, on the caller, as
// MPI_Iallreduce initiates its first message inside the post: the peer's
// wait then starts one hop from the post, not from whenever the scheduler
// first runs the progress goroutine (a caller that never blocks before its
// compute would otherwise hold its own contribution back). The caller must
// not touch buf until Wait returns.
func (f *Fabric) iallreduceSum(rank, seq int, buf []float64) *Request {
	req := &Request{done: make(chan struct{})}
	doubling := f.doubling()
	if doubling && f.p > 1 {
		f.sendPartial(rank, rank^1, seq, buf)
	}
	go func() {
		defer close(req.done)
		if doubling {
			req.err = f.allreduceDoubling(rank, seq, buf, true)
		} else {
			req.err = f.allreduceTree(rank, seq, buf)
		}
	}()
	return req
}

// Barrier synchronizes all ranks (an allreduce of one word).
func (f *Fabric) barrier(rank, seq int) error {
	one := []float64{1}
	return f.allreduceSum(rank, seq, one)
}
