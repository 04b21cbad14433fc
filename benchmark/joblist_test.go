package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func listBytes(t *testing.T, seed uint64, keyed bool, n int) []byte {
	t.Helper()
	l := newJobList(runConfig{seed: seed, scale: 1}, keyed)
	var reqs []solveRequest
	for i := 0; i < n; i++ {
		reqs = append(reqs, l.take().req)
	}
	data, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJobListDeterminism(t *testing.T) {
	a, b := listBytes(t, 7, true, 3*blockJobs), listBytes(t, 7, true, 3*blockJobs)
	if string(a) != string(b) {
		t.Error("the same seed produced two different job lists")
	}
	if c := listBytes(t, 8, true, 3*blockJobs); string(a) == string(c) {
		t.Error("seeds 7 and 8 produced the same job list")
	}
}

// TestJobListMix pins the exact 70/22/8 split per block for any seed.
func TestJobListMix(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		l := newJobList(runConfig{seed: seed, scale: 1}, false)
		for block := 0; block < 4; block++ {
			count := map[string]int{}
			for i := 0; i < blockJobs; i++ {
				j := l.take()
				count[j.class]++
				if j.req.RHSSeed < 1 || j.req.RHSSeed > rhsSeeds {
					t.Fatalf("rhs_seed %d outside 1..%d", j.req.RHSSeed, rhsSeeds)
				}
			}
			want := map[string]int{"small": blockSmall, "medium": blockMedium, "heavy": blockJobs - blockSmall - blockMedium}
			if !reflect.DeepEqual(count, want) {
				t.Errorf("seed %d block %d: mix %v, want %v", seed, block, count, want)
			}
		}
	}
}

func TestSeededInputs(t *testing.T) {
	a, _ := poisson(8, 7, false)
	b1, b2, b3 := seededSystem(a, 3), seededSystem(a, 3), seededSystem(a, 4)
	if !reflect.DeepEqual(b1, b2) {
		t.Error("the same seed produced two different right-hand sides")
	}
	if reflect.DeepEqual(b1, b3) {
		t.Error("seeds 3 and 4 produced the same right-hand side")
	}
	_, text1, err := shuffledLaplacian(runConfig{seed: 3, scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	_, text2, _ := shuffledLaplacian(runConfig{seed: 3, scale: 0.02})
	_, text3, _ := shuffledLaplacian(runConfig{seed: 4, scale: 0.02})
	if string(text1) != string(text2) || string(text1) == string(text3) {
		t.Error("the uploaded matrix must be a pure function of the seed")
	}
}
