package dd

import (
	"math"
	"testing"

	"weaksim/internal/cnum"
)

// snapTestState builds the paper's running-example state (Figs. 2-4) under
// the given normalization scheme.
func snapTestState(t *testing.T, norm Norm) (*Manager, VEdge) {
	t.Helper()
	m := New(3, WithNormalization(norm))
	a := cnum.New(0, -math.Sqrt(3.0/8.0))
	b := cnum.New(math.Sqrt(1.0/8.0), 0)
	state, err := m.FromVector([]cnum.Complex{cnum.Zero, a, cnum.Zero, a, b, cnum.Zero, cnum.Zero, b})
	if err != nil {
		t.Fatal(err)
	}
	return m, state
}

// refDown recursively computes downstream mass the way the pre-snapshot
// map-based annotation did, as the test oracle.
func refDown(n *VNode, memo map[*VNode]float64) float64 {
	if n == nil {
		return 1
	}
	if d, ok := memo[n]; ok {
		return d
	}
	var d float64
	for i := 0; i < 2; i++ {
		if e := n.E[i]; !e.IsZero() {
			d += e.W.Abs2() * refDown(e.N, memo)
		}
	}
	memo[n] = d
	return d
}

func TestFreezeRejectsZeroVector(t *testing.T) {
	m := New(3)
	if _, err := m.Freeze(VEdge{}); err == nil {
		t.Fatal("expected error freezing the zero vector")
	}
}

// TestFreezeTopologicalOrder: post-order indexing means every child index
// is strictly smaller than its parent's — the invariant both annotation
// sweeps rely on.
func TestFreezeTopologicalOrder(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Len() == 0 || snap.Root() != int32(snap.Len()-1) {
			t.Fatalf("norm %v: root index %d, want last index %d", norm, snap.Root(), snap.Len()-1)
		}
		for i := 0; i < snap.Len(); i++ {
			nd := snap.At(int32(i))
			for b := 0; b < 2; b++ {
				if k := nd.Kid[b]; k >= int32(i) {
					t.Errorf("norm %v: node %d child %d has index %d ≥ parent", norm, i, b, k)
				} else if k < SnapZero {
					t.Errorf("norm %v: node %d child %d has invalid index %d", norm, i, b, k)
				}
			}
		}
	}
}

// TestFreezeDownUpMassMatchReference: the flat-array annotation reproduces
// the recursive reference computation node for node, and traversal
// probabilities sum to 1 per level.
func TestFreezeDownUpMassMatchReference(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		memo := make(map[*VNode]float64)
		refDown(state.N, memo)
		if got, want := snap.Len(), len(memo); got != want {
			t.Fatalf("norm %v: %d frozen nodes, reference reaches %d", norm, got, want)
		}
		// Pair every live node with the snapshot index reached along the
		// same edges from the root. The pairing must be a bijection, and
		// each paired index must carry the reference mass bit for bit.
		pairedIdx := make(map[*VNode]int32)
		used := make([]bool, snap.Len())
		var pair func(n *VNode, i int32)
		pair = func(n *VNode, i int32) {
			if n == nil {
				if i != SnapTerminal {
					t.Fatalf("norm %v: terminal edge frozen as index %d", norm, i)
				}
				return
			}
			if j, ok := pairedIdx[n]; ok {
				if j != i {
					t.Fatalf("norm %v: one node frozen as indices %d and %d", norm, j, i)
				}
				return
			}
			if i < 0 || used[i] {
				t.Fatalf("norm %v: index %d invalid or shared by two nodes", norm, i)
			}
			pairedIdx[n], used[i] = i, true
			if got, want := snap.Down(i), memo[n]; got != want {
				t.Errorf("norm %v: down[%d] = %v, want %v (bit-exact)", norm, i, got, want)
			}
			nd := snap.At(i)
			if int(nd.V) != n.V {
				t.Errorf("norm %v: node %d at level %d, live node at %d", norm, i, nd.V, n.V)
			}
			for b := 0; b < 2; b++ {
				if e := n.E[b]; e.IsZero() {
					if nd.Kid[b] != SnapZero {
						t.Errorf("norm %v: node %d zero edge %d frozen as %d", norm, i, b, nd.Kid[b])
					}
				} else {
					pair(e.N, nd.Kid[b])
				}
			}
		}
		pair(state.N, snap.Root())
		levelSums := make(map[int32]float64)
		for i := 0; i < snap.Len(); i++ {
			levelSums[snap.At(int32(i)).V] += snap.Traversal(int32(i))
		}
		for level, sum := range levelSums {
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("norm %v: level %d traversal mass %v, want 1", norm, level, sum)
			}
		}
	}
}

// TestFreezeBranchThresholds: under L2 the threshold is exactly |w0|²; the
// generic rule renormalizes by downstream mass, and both versions describe
// the same distribution.
func TestFreezeBranchThresholds(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	fast, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Generic() {
		t.Error("L2Phase snapshot should use the fast probability rule")
	}
	gen, err := m.Freeze(state, FreezeGeneric())
	if err != nil {
		t.Fatal(err)
	}
	if !gen.Generic() {
		t.Error("FreezeGeneric snapshot should report the generic rule")
	}
	root := fast.At(fast.Root())
	if got := root.W[0].Abs2(); got != root.P0 {
		t.Errorf("fast root P0 = %v, want |w0|² = %v", root.P0, got)
	}
	// Paper Fig. 4c/4d: the root splits 3/4 vs 1/4 under both rules.
	for name, snap := range map[string]*Snapshot{"fast": fast, "generic": gen} {
		p0 := snap.At(snap.Root()).P0
		if math.Abs(p0-0.75) > 1e-9 {
			t.Errorf("%s root threshold = %v, want 3/4", name, p0)
		}
	}
}

// TestFreezeAmplitudes: amplitudes reconstructed from the frozen arrays
// match the live diagram's amplitudes for every basis state.
func TestFreezeAmplitudes(t *testing.T) {
	for _, norm := range []Norm{NormLeft, NormL2, NormL2Phase} {
		m, state := snapTestState(t, norm)
		snap, err := m.Freeze(state)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(0); idx < 8; idx++ {
			live := m.Amplitude(state, idx)
			frozen := snap.Amplitude(idx)
			if math.Abs(live.Re-frozen.Re) > 1e-12 || math.Abs(live.Im-frozen.Im) > 1e-12 {
				t.Errorf("norm %v: amplitude(%d) frozen %v, live %v", norm, idx, frozen, live)
			}
		}
	}
}

// TestSnapshotSurvivesManagerReuse pins the manager-reuse-after-freeze
// guarantee: after freezing, the Manager can garbage-collect everything and
// build an entirely different state without invalidating the snapshot.
func TestSnapshotSurvivesManagerReuse(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	wantAmps := make([]cnum.Complex, 8)
	for idx := uint64(0); idx < 8; idx++ {
		wantAmps[idx] = snap.Amplitude(idx)
	}
	wantNodes := snap.Len()
	wantP0 := snap.At(snap.Root()).P0

	// Reuse the Manager: drop every root, collect, and build a fresh state.
	m.GC(nil, nil)
	other := m.BasisState(5)
	if other.IsZero() {
		t.Fatal("manager reuse failed")
	}
	m.GC([]VEdge{other}, nil)

	if snap.Len() != wantNodes {
		t.Errorf("snapshot node count changed after manager reuse: %d vs %d", snap.Len(), wantNodes)
	}
	if got := snap.At(snap.Root()).P0; got != wantP0 {
		t.Errorf("root threshold changed after manager reuse: %v vs %v", got, wantP0)
	}
	for idx := uint64(0); idx < 8; idx++ {
		if got := snap.Amplitude(idx); got != wantAmps[idx] {
			t.Errorf("amplitude(%d) changed after manager reuse: %v vs %v", idx, got, wantAmps[idx])
		}
	}
}

// TestFreezeAllocatesExactly: the unique table still holds nodes no GC has
// swept, yet the frozen arrays are sized to the reachable node count, so
// Bytes (computed from lengths) is what the snapshot actually holds.
func TestFreezeAllocatesExactly(t *testing.T) {
	m := New(6)
	vec := func(seed float64) []cnum.Complex {
		v := make([]cnum.Complex, 64)
		var norm2 float64
		for i := range v {
			v[i] = cnum.New(math.Sin(seed*float64(i+1)), math.Cos(seed*float64(2*i+3)))
			norm2 += v[i].Abs2()
		}
		for i := range v {
			v[i] = v[i].Scale(1 / math.Sqrt(norm2))
		}
		return v
	}
	if _, err := m.FromVector(vec(1.7)); err != nil { // left dead in the table
		t.Fatal(err)
	}
	state, err := m.FromVector(vec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	if m.vTab.n <= snap.Len() {
		t.Fatalf("unique table holds %d nodes for a %d-node state; the test needs dead nodes", m.vTab.n, snap.Len())
	}
	if cap(snap.nodes) != len(snap.nodes) || cap(snap.down) != len(snap.down) || cap(snap.up) != len(snap.up) {
		t.Errorf("freeze over-allocates: nodes %d/%d, down %d/%d, up %d/%d (len/cap)",
			len(snap.nodes), cap(snap.nodes), len(snap.down), cap(snap.down), len(snap.up), cap(snap.up))
	}
}

// TestSnapshotStats: the size report is self-consistent.
func TestSnapshotStats(t *testing.T) {
	m, state := snapTestState(t, NormL2Phase)
	snap, err := m.Freeze(state)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Stats()
	if st.Nodes != snap.Len() {
		t.Errorf("Stats.Nodes = %d, want %d", st.Nodes, snap.Len())
	}
	if st.Bytes < st.Nodes*48 {
		t.Errorf("Stats.Bytes = %d implausibly small for %d nodes", st.Bytes, st.Nodes)
	}
	if st.Generic {
		t.Error("L2Phase snapshot reported generic")
	}
}
