package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weaksim/internal/dd"
	"weaksim/internal/fault"
	"weaksim/internal/obs"
	"weaksim/internal/rng"
)

// FrozenSampler draws measurement samples from an immutable dd.Snapshot:
// the paper's randomized O(n) root-to-terminal walk (Section IV) over flat
// arrays. The walk reads a []dd.SnapNode by int32 index and compares one
// uniform draw per level against the node's precomputed 0-branch threshold
// P0 — |w0|² under L2 normalization (Section IV-C), the downstream-
// renormalized d0/(d0+d1) otherwise (Section IV-B). Each level is a handful
// of cache-friendly array loads: no map lookups, no interface dispatch, no
// pointer chasing.
//
// A FrozenSampler is safe for concurrent use by any number of goroutines,
// each with its own *rng.RNG: the snapshot is immutable, and the only
// mutable field (the renorm counter) is atomic. This is what the parallel
// shot generator relies on — one snapshot, many lock-free walkers.
//
// The walk is a pure function of the snapshot and the random sequence:
// exactly one uniform is consumed per level, and the zero-edge fallback
// flips the branch without drawing again. Served counts depend on that, so
// golden digests pin it (TestFrozenMatchesLiveBitForBit).
type FrozenSampler struct {
	nodes   []dd.SnapNode
	root    int32
	n       int
	snap    *dd.Snapshot
	renorms atomic.Uint64
}

// NewFrozenSampler prepares lock-free sampling from a frozen state.
func NewFrozenSampler(snap *dd.Snapshot) (*FrozenSampler, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Qubits() > 0 && (snap.Len() == 0 || snap.Root() < 0) {
		return nil, fmt.Errorf("core: snapshot has no root node for %d qubits", snap.Qubits())
	}
	return &FrozenSampler{
		nodes: snap.Nodes(),
		root:  snap.Root(),
		n:     snap.Qubits(),
		snap:  snap,
	}, nil
}

// Qubits returns the sampled bitstring width.
func (s *FrozenSampler) Qubits() int { return s.n }

// Snapshot returns the frozen state the sampler walks.
func (s *FrozenSampler) Snapshot() *dd.Snapshot { return s.snap }

// Renorms returns how many zero-edge fallbacks walks have taken so far,
// summed across all goroutines — the "rejection/renormalization" events of
// the randomized traversal, caused purely by floating-point slack at
// (near-)zero branch probabilities. A healthy state keeps this at or near
// zero.
func (s *FrozenSampler) Renorms() uint64 { return s.renorms.Load() }

// Sample draws one basis-state index by a randomized walk over the frozen
// arrays. Safe for concurrent use; r must be goroutine-local.
func (s *FrozenSampler) Sample(r *rng.RNG) uint64 {
	var idx uint64
	nodes := s.nodes
	cur := s.root
	for v := s.n - 1; v >= 0; v-- {
		nd := &nodes[cur]
		var next int32
		if r.Float64() < nd.P0 {
			next = nd.Kid[0]
		} else {
			next = nd.Kid[1]
			idx |= uint64(1) << uint(v)
		}
		if next == dd.SnapZero {
			// Floating-point slack put us on a zero edge; the other branch
			// holds all the mass. No extra uniform is consumed.
			s.renorms.Add(1)
			if idx&(uint64(1)<<uint(v)) != 0 {
				idx &^= uint64(1) << uint(v)
				next = nd.Kid[0]
			} else {
				idx |= uint64(1) << uint(v)
				next = nd.Kid[1]
			}
		}
		cur = next
	}
	return idx
}

// CountsSizeHint bounds the number of distinct outcomes a tally of shots
// samples over n qubits can hold: no more than the shot count, and no more
// than the 2^n basis states. Used to preallocate result maps so the tally
// loop never rehashes.
func CountsSizeHint(shots, qubits int) int {
	if shots < 0 {
		return 0
	}
	if qubits < 63 {
		if states := 1 << uint(qubits); states < shots {
			return states
		}
	}
	return shots
}

// MergeCounts folds the partial tallies in parts into dst. It allocates no
// intermediate structures: each partial entry is a single map-index add on
// dst. Merging is commutative, so the result is independent of part order;
// callers that need deterministic map growth merge in worker order.
func MergeCounts(dst map[uint64]int, parts ...map[uint64]int) {
	for _, part := range parts {
		for idx, c := range part {
			dst[idx] += c
		}
	}
}

// WorkerStat reports one worker's share of a parallel sampling batch, for
// telemetry surfaces.
type WorkerStat struct {
	// Worker is the stream index k (the same k passed to rng.Stream).
	Worker int
	// Shots is how many samples the worker drew (including partial batches
	// cut short by cancellation).
	Shots int
	// Elapsed is the worker's wall-clock sampling time.
	Elapsed time.Duration
}

// CountsParallel shards shots samples across workers goroutines walking the
// same sampler concurrently and returns the merged tallies. Worker k draws
// from the independent stream rng.Stream(seed, k), so the batch is a pure
// function of (seed, shots, workers): re-running reproduces it exactly, and
// with workers == 1 the batch consumes precisely the sequence of
// rng.New(seed) — the single-worker run is bit-for-bit the sequential one.
//
// The sampler must be safe for concurrent use (FrozenSampler is; the
// vector-based samplers are too, being read-only after construction).
func CountsParallel(s Sampler, seed uint64, shots, workers int) (map[uint64]int, []WorkerStat) {
	counts, stats, _ := CountsParallelContext(context.Background(), s, seed, shots, workers)
	return counts, stats
}

// CountsParallelContext is CountsParallel with cooperative cancellation,
// checked every CtxCheckShots shots in each worker. On cancellation the
// partial tallies drawn so far are merged and returned alongside the
// context's error.
func CountsParallelContext(ctx context.Context, s Sampler, seed uint64, shots, workers int) (map[uint64]int, []WorkerStat, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > shots {
		workers = shots
	}
	if workers < 1 { // shots <= 0
		return map[uint64]int{}, nil, ctx.Err()
	}

	qubits := s.Qubits()
	base, rem := shots/workers, shots%workers

	parts := make([]map[uint64]int, workers)
	stats := make([]WorkerStat, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		quota := base
		if k < rem {
			quota++
		}
		wg.Add(1)
		go func(k, quota int) {
			defer wg.Done()
			r := rng.Stream(seed, k)
			local := make(map[uint64]int, CountsSizeHint(quota, qubits))
			start := time.Now()
			drawn := 0
			// An injected panic (chaos testing) must not take down the whole
			// process from a sampling goroutine — no other goroutine could
			// recover it. Convert it to this worker's error; genuine panics
			// still propagate.
			defer func() {
				if rec := recover(); rec != nil {
					p, ok := rec.(*fault.InjectedPanic)
					if !ok {
						panic(rec)
					}
					errs[k] = fmt.Errorf("core: worker %d: %w after %d/%d shots", k, p, drawn, quota)
					parts[k] = local
					stats[k] = WorkerStat{Worker: k, Shots: drawn, Elapsed: time.Since(start)}
				}
			}()
			for ; drawn < quota; drawn++ {
				// Cancellation and the chaos hook share the stride: both cost
				// nothing on CtxCheckShots-1 of every CtxCheckShots shots.
				if drawn%CtxCheckShots == 0 {
					if ctx.Err() != nil {
						errs[k] = fmt.Errorf("core: worker %d interrupted after %d/%d shots: %w",
							k, drawn, quota, context.Cause(ctx))
						break
					}
					if err := fault.Hit(fault.SamplerWalk); err != nil {
						errs[k] = fmt.Errorf("core: worker %d after %d/%d shots: %w", k, drawn, quota, err)
						break
					}
				}
				local[s.Sample(r)]++
			}
			parts[k] = local
			stats[k] = WorkerStat{Worker: k, Shots: drawn, Elapsed: time.Since(start)}
		}(k, quota)
	}
	wg.Wait()

	// Request-scoped trace attribution: when the context carries a request
	// trace, annotate it with one walk event per worker (shots drawn, wall
	// time) so a debug=1 breakdown shows how the shot batch sharded. Events
	// carry no duration, so they never distort the phase-sum accounting.
	if rt := obs.TraceFromContext(ctx); rt != nil {
		for _, st := range stats {
			rt.Event(obs.PhaseSample, map[string]any{
				"walk_worker": st.Worker,
				"shots":       st.Shots,
				"elapsed_ns":  st.Elapsed.Nanoseconds(),
			})
		}
	}

	merged := make(map[uint64]int, CountsSizeHint(shots, qubits))
	MergeCounts(merged, parts...)
	for _, err := range errs {
		if err != nil {
			return merged, stats, err
		}
	}
	return merged, stats, nil
}
