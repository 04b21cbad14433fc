package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// collect runs one collective on every rank of a fresh fabric and returns
// each rank's reduced buffer plus the number of messages the fabric carried.
func collect(p int, vals [][]float64, run func(f *Fabric, rank int, buf []float64)) ([][]float64, int64) {
	f := NewFabric(p, 0)
	out := make([][]float64, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		go func(r int) {
			defer wg.Done()
			buf := append([]float64(nil), vals[r]...)
			run(f, r, buf)
			out[r] = buf
		}(r)
	}
	wg.Wait()
	var msgs int64
	for _, tr := range f.TransitStats() {
		msgs += tr.Msgs
	}
	return out, msgs
}

// hostilePayload mixes the values a summation order shows up on: both zeros,
// subnormals, and magnitudes far enough apart that (a+b)+c ≠ a+(b+c).
func hostilePayload(rng *rand.Rand, words int) []float64 {
	v := make([]float64, words)
	for w := range v {
		switch rng.Intn(6) {
		case 0:
			v[w] = math.Copysign(0, -1)
		case 1:
			v[w] = 0
		case 2:
			v[w] = math.Float64frombits(uint64(1 + rng.Intn(1<<20))) // subnormal
		case 3:
			v[w] = -math.Float64frombits(uint64(1 + rng.Intn(1<<20)))
		case 4:
			v[w] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16))
		default:
			v[w] = rng.NormFloat64()
		}
	}
	return v
}

func payloads(seed int64, p, words int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([][]float64, p)
	for r := range vals {
		vals[r] = hostilePayload(rng, words)
	}
	// Word 0: every rank contributes −0, whose sum must stay −0.
	for r := range vals {
		vals[r][0] = math.Copysign(0, -1)
	}
	return vals
}

func sameWords(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestDoublingMatchesTreeBitwise: for a power-of-two P recursive doubling
// must leave, on every rank, the bits the reduce+broadcast tree produces —
// blocking and posted alike — in log₂P rounds of P messages.
func TestDoublingMatchesTreeBitwise(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		for seed := int64(0); seed < 20; seed++ {
			vals := payloads(seed, p, 9)
			tree, treeMsgs := collect(p, vals, func(f *Fabric, r int, buf []float64) {
				f.allreduceTree(r, 0, buf)
			})
			doubled, msgs := collect(p, vals, func(f *Fabric, r int, buf []float64) {
				f.allreduceSum(r, 0, buf)
			})
			posted, _ := collect(p, vals, func(f *Fabric, r int, buf []float64) {
				f.iallreduceSum(r, 0, buf).Wait()
			})
			for r := 0; r < p; r++ {
				if !sameWords(doubled[r], tree[0]) || !sameWords(posted[r], tree[0]) || !sameWords(tree[r], tree[0]) {
					t.Fatalf("p=%d seed=%d rank %d: doubling %v posted %v tree %v", p, seed, r, doubled[r], posted[r], tree[0])
				}
			}
			if !math.Signbit(doubled[0][0]) {
				t.Fatalf("p=%d: a sum of −0 must stay −0", p)
			}
			rounds := int64(math.Log2(float64(p)))
			if msgs != int64(p)*rounds || treeMsgs != 2*int64(p-1) {
				t.Fatalf("p=%d: doubling sent %d messages (want %d), tree %d (want %d)",
					p, msgs, int64(p)*rounds, treeMsgs, 2*(p-1))
			}
		}
	}
}

// TestNonPowerOfTwoKeepsTree: any other P still runs reduce+broadcast — the
// tree's message count and the tree's bits.
func TestNonPowerOfTwoKeepsTree(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7} {
		vals := payloads(int64(p), p, 9)
		tree, _ := collect(p, vals, func(f *Fabric, r int, buf []float64) {
			f.allreduceTree(r, 0, buf)
		})
		got, msgs := collect(p, vals, func(f *Fabric, r int, buf []float64) {
			f.allreduceSum(r, 0, buf)
		})
		posted, _ := collect(p, vals, func(f *Fabric, r int, buf []float64) {
			f.iallreduceSum(r, 0, buf).Wait()
		})
		for r := 0; r < p; r++ {
			if !sameWords(got[r], tree[0]) || !sameWords(posted[r], tree[0]) {
				t.Fatalf("p=%d rank %d: %v / %v, tree %v", p, r, got[r], posted[r], tree[0])
			}
		}
		if msgs != 2*int64(p-1) {
			t.Fatalf("p=%d: %d messages, the tree sends %d", p, msgs, 2*(p-1))
		}
	}
}
