package core

import (
	"fmt"
	"math"

	"weaksim/internal/cnum"
	"weaksim/internal/dd"
	"weaksim/internal/rng"
)

// MeasureAll performs a destructive measurement of all qubits: it samples
// one basis state and returns it together with the collapsed post-
// measurement state (a basis-state DD). Physical quantum computers only
// offer this destructive operation; repeated non-destructive sampling is
// the luxury of simulation (paper Section IV-B).
func MeasureAll(m *dd.Manager, state dd.VEdge, r *rng.RNG) (uint64, dd.VEdge, error) {
	snap, err := m.Freeze(state)
	if err != nil {
		return 0, dd.VEdge{}, fmt.Errorf("core: %w", err)
	}
	s, err := NewFrozenSampler(snap)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	idx := s.Sample(r)
	return idx, m.BasisState(idx), nil
}

// QubitProbability returns the probability that measuring the given qubit
// yields 1, computed from the upstream/downstream node probabilities in
// time linear in the DD size: the sum, over the nodes deciding the qubit,
// of upstream mass × |w1|² × the 1-successor's downstream mass (paper
// Section IV-B). The sum runs in snapshot index order, so repeated calls
// return bit-identical results.
func QubitProbability(m *dd.Manager, state dd.VEdge, qubit int) (float64, error) {
	if qubit < 0 || qubit >= m.Qubits() {
		return 0, fmt.Errorf("core: qubit %d out of range", qubit)
	}
	if state.IsZero() {
		return 0, fmt.Errorf("core: cannot measure the zero vector")
	}
	snap, err := m.Freeze(state)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	var p1 float64
	for i := int32(0); int(i) < snap.Len(); i++ {
		nd := snap.At(i)
		if int(nd.V) != qubit || nd.Kid[1] == dd.SnapZero {
			continue
		}
		p1 += snap.Up(i) * nd.W[1].Abs2() * downOf(snap, nd.Kid[1])
	}
	return p1 / (snap.RootWeight().Abs2() * snap.Down(snap.Root())), nil
}

// downOf returns the downstream mass below child index k: 1 for the
// terminal, the frozen annotation otherwise. k must not be dd.SnapZero.
func downOf(snap *dd.Snapshot, k int32) float64 {
	if k == dd.SnapTerminal {
		return 1
	}
	return snap.Down(k)
}

// MeasureQubit measures a single qubit, collapses the state accordingly,
// and renormalizes. It returns the observed bit and the post-measurement
// state DD.
func MeasureQubit(m *dd.Manager, state dd.VEdge, qubit int, r *rng.RNG) (int, dd.VEdge, error) {
	p1, err := QubitProbability(m, state, qubit)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	bit := 0
	p := 1 - p1
	if r.Float64() < p1 {
		bit = 1
		p = p1
	}
	collapsed, err := Project(m, state, qubit, bit)
	if err != nil {
		return 0, dd.VEdge{}, err
	}
	// Renormalize by the square root of the observed probability.
	collapsed.W = m.Lookup(collapsed.W.Scale(1 / math.Sqrt(p*m.Norm2(state))))
	return bit, collapsed, nil
}

// Project zeroes the branch of the given qubit that disagrees with bit,
// without renormalizing. The result's squared norm equals the probability
// of the projected outcome (for a normalized input state).
func Project(m *dd.Manager, state dd.VEdge, qubit, bit int) (dd.VEdge, error) {
	if qubit < 0 || qubit >= m.Qubits() {
		return dd.VEdge{}, fmt.Errorf("core: qubit %d out of range", qubit)
	}
	if bit != 0 && bit != 1 {
		return dd.VEdge{}, fmt.Errorf("core: bit must be 0 or 1")
	}
	memo := make(map[*dd.VNode]dd.VEdge)
	var rec func(e dd.VEdge, v int) dd.VEdge
	rec = func(e dd.VEdge, v int) dd.VEdge {
		if e.IsZero() {
			return dd.VEdge{}
		}
		if v < qubit {
			return e
		}
		if sub, ok := memo[e.N]; ok {
			return scaleEdge(m, sub, e.W)
		}
		var out dd.VEdge
		if v == qubit {
			kept := e.N.E[bit]
			var children [2]dd.VEdge
			children[bit] = kept
			out = m.MakeVNode(v, children[0], children[1])
		} else {
			e0 := rec(e.N.E[0], v-1)
			e1 := rec(e.N.E[1], v-1)
			out = m.MakeVNode(v, e0, e1)
		}
		memo[e.N] = out
		return scaleEdge(m, out, e.W)
	}
	return rec(state, m.Qubits()-1), nil
}

func scaleEdge(m *dd.Manager, e dd.VEdge, w cnum.Complex) dd.VEdge {
	if e.IsZero() {
		return dd.VEdge{}
	}
	return dd.VEdge{W: m.Lookup(e.W.Mul(w)), N: e.N}
}
