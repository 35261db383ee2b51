package core

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
	"weaksim/internal/stats"
)

// frozenTestState builds the paper's running-example state and a matching
// random 6-qubit state for parity checks.
func frozenRandomVector(n int, seed uint64) ([]cnum.Complex, []float64) {
	r := rng.New(seed)
	size := 1 << uint(n)
	vec := make([]cnum.Complex, size)
	var norm float64
	for i := range vec {
		vec[i] = cnum.New(r.Float64()-0.5, r.Float64()-0.5)
		norm += vec[i].Abs2()
	}
	s := 1 / math.Sqrt(norm)
	for i := range vec {
		vec[i] = vec[i].Scale(s)
	}
	return vec, ProbabilitiesFromAmplitudes(vec)
}

// walkDigest is the FNV-1a hash of shots indices drawn from s with
// rng.New(seed), each index fed as 8 little-endian bytes.
func walkDigest(s Sampler, seed uint64, shots int) uint64 {
	h := fnv.New64a()
	r := rng.New(seed)
	var buf [8]byte
	for i := 0; i < shots; i++ {
		binary.LittleEndian.PutUint64(buf[:], s.Sample(r))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFrozenMatchesLiveBitForBit pins the frozen walk to the pointer walk
// over the live diagram that it replaced: for the same random 6-qubit
// state (seed 23) and random sequence (rng.New(99), 20000 shots), the
// index sequence and renorm count must match digests recorded from the
// live walk — under every normalization scheme and both branch rules.
func TestFrozenMatchesLiveBitForBit(t *testing.T) {
	vec, _ := frozenRandomVector(6, 23)
	cases := []struct {
		name    string
		norm    dd.Norm
		generic bool
		digest  uint64
		renorms uint64
	}{
		{"left-generic", dd.NormLeft, false, 0xc994482306eb8188, 0},
		{"l2-fast", dd.NormL2, false, 0xc994482306eb8188, 0},
		{"l2phase-fast", dd.NormL2Phase, false, 0xc994482306eb8188, 0},
		{"l2phase-forced-generic", dd.NormL2Phase, true, 0xc994482306eb8188, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := dd.New(6, dd.WithNormalization(tc.norm))
			state, err := m.FromVector(vec)
			if err != nil {
				t.Fatal(err)
			}
			var opts []dd.FreezeOption
			if tc.generic {
				opts = append(opts, dd.FreezeGeneric())
			}
			frozen := freezeSampler(t, m, state, opts...)
			if got := walkDigest(frozen, 99, 20000); got != tc.digest {
				t.Errorf("walk digest %#016x, want %#016x", got, tc.digest)
			}
			if got := frozen.Renorms(); got != tc.renorms {
				t.Errorf("renorms %d, want %d", got, tc.renorms)
			}
		})
	}
}

func TestNewFrozenSamplerRejectsBadInput(t *testing.T) {
	if _, err := NewFrozenSampler(nil); err == nil {
		t.Error("expected error for nil snapshot")
	}
}

// TestCountsParallelSingleWorkerIsSequential: workers=1 must consume exactly
// the sequence of rng.New(seed), reproducing sequential Counts bit for bit.
func TestCountsParallelSingleWorkerIsSequential(t *testing.T) {
	m := dd.New(3, dd.WithNormalization(dd.NormL2Phase))
	vec := []cnum.Complex{cnum.Zero,
		cnum.New(0, -math.Sqrt(3.0/8.0)), cnum.Zero, cnum.New(0, -math.Sqrt(3.0/8.0)),
		cnum.New(math.Sqrt(1.0/8.0), 0), cnum.Zero, cnum.Zero, cnum.New(math.Sqrt(1.0/8.0), 0)}
	state, err := m.FromVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := NewFrozenSampler(snap)
	if err != nil {
		t.Fatal(err)
	}
	const seed, shots = 41, 5000
	want := Counts(frozen, rng.New(seed), shots)
	got, stats := CountsParallel(frozen, seed, shots, 1)
	if len(stats) != 1 || stats[0].Shots != shots {
		t.Fatalf("worker stats %+v, want one worker with %d shots", stats, shots)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel(1) outcome count %d, sequential %d", len(got), len(want))
	}
	for idx, n := range want {
		if got[idx] != n {
			t.Errorf("outcome %d: parallel(1) %d, sequential %d", idx, got[idx], n)
		}
	}
}

// TestCountsParallelDeterministicAndComplete: a parallel batch is a pure
// function of (seed, shots, workers) and always tallies exactly shots
// samples, including when shots does not divide evenly.
func TestCountsParallelDeterministicAndComplete(t *testing.T) {
	vec, _ := frozenRandomVector(5, 7)
	m := dd.New(5, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	for _, workers := range []int{1, 3, 4, 8, 16} {
		const shots = 10007 // prime: uneven shard sizes
		a, statsA := CountsParallel(frozen, 5, shots, workers)
		b, _ := CountsParallel(frozen, 5, shots, workers)
		totalA, totalStats := 0, 0
		for _, n := range a {
			totalA += n
		}
		for _, ws := range statsA {
			totalStats += ws.Shots
		}
		if totalA != shots || totalStats != shots {
			t.Errorf("workers=%d: tallied %d shots (stats %d), want %d", workers, totalA, totalStats, shots)
		}
		if len(a) != len(b) {
			t.Fatalf("workers=%d: repeat run differs in outcome count", workers)
		}
		for idx, n := range a {
			if b[idx] != n {
				t.Errorf("workers=%d outcome %d: %d vs %d across identical runs", workers, idx, n, b[idx])
			}
		}
	}
}

// TestCountsParallelMatchesDistribution: chi-square goodness of fit of the
// merged parallel tallies against the exact Born distribution at several
// worker counts.
func TestCountsParallelMatchesDistribution(t *testing.T) {
	vec, probs := frozenRandomVector(6, 23)
	m := dd.New(6, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	const shots = 60000
	for _, workers := range []int{1, 4, 8} {
		counts, _ := CountsParallel(frozen, 31+uint64(workers), shots, workers)
		res, err := stats.ChiSquareGOF(counts, probs, shots)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.PValue < 1e-6 {
			t.Errorf("workers=%d: chi-square rejects: stat=%v dof=%d p=%v",
				workers, res.Statistic, res.DoF, res.PValue)
		}
		for idx := range counts {
			if probs[idx] == 0 {
				t.Errorf("workers=%d: sampled impossible outcome %d", workers, idx)
			}
		}
	}
}

// TestCountsParallelContextCancellation: a cancelled batch returns the
// partial tallies each worker managed to draw plus the typed cause.
func TestCountsParallelContextCancellation(t *testing.T) {
	vec, _ := frozenRandomVector(4, 3)
	m := dd.New(4, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counts, stats, err := CountsParallelContext(ctx, frozen, 9, 1<<20, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total >= 1<<20 {
		t.Errorf("cancelled batch completed all %d shots", total)
	}
	for _, ws := range stats {
		if ws.Shots > CtxCheckShots {
			t.Errorf("worker %d drew %d shots after pre-cancelled ctx (check window %d)",
				ws.Worker, ws.Shots, CtxCheckShots)
		}
	}
}

// TestFrozenSamplerParallelStress hammers one snapshot from 16 goroutines.
// Run under -race (see the CI race step) this pins the lock-free concurrent
// read guarantee of the frozen arrays.
func TestFrozenSamplerParallelStress(t *testing.T) {
	vec, probs := frozenRandomVector(6, 55)
	m := dd.New(6, dd.WithNormalization(dd.NormL2Phase))
	state, _ := m.FromVector(vec)
	snap, _ := m.Freeze(state)
	frozen, _ := NewFrozenSampler(snap)

	// The Manager may be reused (even garbage-collected) while sampling runs.
	m.GC(nil, nil)

	const goroutines = 16
	shots := 20000
	if testing.Short() {
		shots = 4000
	}
	var wg sync.WaitGroup
	totals := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.Stream(77, g)
			for i := 0; i < shots; i++ {
				idx := frozen.Sample(r)
				if probs[idx] == 0 {
					t.Errorf("goroutine %d: impossible outcome %d", g, idx)
					return
				}
				totals[g]++
			}
		}(g)
	}
	wg.Wait()
	for g, n := range totals {
		if n != shots {
			t.Errorf("goroutine %d drew %d shots, want %d", g, n, shots)
		}
	}
}

func TestCountsSizeHint(t *testing.T) {
	cases := []struct{ shots, qubits, want int }{
		{1000, 3, 8},     // few basis states bound the hint
		{5, 30, 5},       // few shots bound the hint
		{1 << 20, 4, 16}, // 2^4 outcomes max
		{100, 63, 100},   // huge register: shots bound
		{-3, 5, 0},       // degenerate
	}
	for _, tc := range cases {
		if got := CountsSizeHint(tc.shots, tc.qubits); got != tc.want {
			t.Errorf("CountsSizeHint(%d, %d) = %d, want %d", tc.shots, tc.qubits, got, tc.want)
		}
	}
}

// TestMergeCountsNoAllocs pins the allocation budget of the merge step:
// folding partial tallies into a map that already holds every key performs
// zero heap allocations.
func TestMergeCountsNoAllocs(t *testing.T) {
	parts := make([]map[uint64]int, 8)
	dst := make(map[uint64]int, 64)
	for k := range parts {
		parts[k] = make(map[uint64]int, 64)
		for i := uint64(0); i < 64; i++ {
			parts[k][i] = int(i) + k
			dst[i] = 0
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		MergeCounts(dst, parts...)
	})
	if allocs != 0 {
		t.Errorf("MergeCounts allocated %v objects per run, want 0", allocs)
	}
}

// TestMergeCountsCommutes: merging in any order yields the same tallies.
func TestMergeCountsCommutes(t *testing.T) {
	a := map[uint64]int{1: 2, 3: 4}
	b := map[uint64]int{1: 1, 5: 9}
	x := map[uint64]int{}
	y := map[uint64]int{}
	MergeCounts(x, a, b)
	MergeCounts(y, b, a)
	if len(x) != len(y) {
		t.Fatalf("order-dependent merge: %v vs %v", x, y)
	}
	for k, v := range x {
		if y[k] != v {
			t.Errorf("key %d: %d vs %d", k, v, y[k])
		}
	}
	if x[1] != 3 || x[3] != 4 || x[5] != 9 {
		t.Errorf("merged tallies wrong: %v", x)
	}
}
