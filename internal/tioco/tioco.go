// Package tioco implements the timed input/output conformance relation of
// the paper (Def. 5): an implementation conforms to a specification iff
// after every specification trace, every implementation output (or delay)
// is also allowed by the specification:
//
//	i tioco s  iff  ∀σ ∈ TTr(s): Out(i After σ) ⊆ Out(s After σ)
//
// The Monitor tracks the set of plant states the specification allows after
// the observed timed trace and decides, online, whether each observed
// output and delay is permitted — exactly the `Out(s0 After σ)` oracle of
// Algorithm 3.1 in the paper.
//
// The monitor views the plant processes of the model as an open system:
// inputs are Receive edges on controllable channels, outputs are Emit edges
// on uncontrollable channels; the environment processes of the closed model
// are ignored because the tester takes their place during test execution.
//
// Concurrency contract: a Monitor is stateful and single-caller (one per
// test run); the specification it reads is shared and immutable, so
// concurrent runs each build their own Monitor over one specification.
package tioco

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/tiots"
)

// Violation describes a conformance violation.
type Violation struct {
	Kind   string // "output", "delay", "input"
	Detail string
}

func (v *Violation) Error() string { return "tioco: " + v.Kind + ": " + v.Detail }

// state is one hypothesis about the plant's current semantic state.
type state struct {
	locs []int   // locations of plant processes (indexed by plant slot)
	vars []int32 // full variable environment (plant assignments only)
	val  []int64 // all clocks, ticks
}

func (s *state) equal(o *state) bool {
	return slices.Equal(s.locs, o.locs) && slices.Equal(s.vars, o.vars) && slices.Equal(s.val, o.val)
}

// Monitor tracks Out(s0 After σ) for the plant part of a specification.
//
// Steps reuse memory: successor hypotheses are collected in a buffer that
// swaps with the live one, hypotheses that drop out are recycled by the
// next fire, delays advance the survivors in place, and the observed trace
// is kept as events and rendered only when a diagnostic reads it.
type Monitor struct {
	sys    *model.System
	plant  []int // process indices of the plant (IUT) in the closed model
	scale  int64
	states []*state
	next   []*state    // successor buffer, swapped with states by commit
	free   []*state    // dropped hypotheses, reused by fire
	trace  tiots.Trace // observed trace
	ctx    expr.Ctx    // guard and assignment evaluation context
	ceil   []int64     // clock ceilings over the plant processes
}

// NewMonitor builds a monitor for the plant processes of the specification.
func NewMonitor(sys *model.System, plantProcs []int, scale int64) (*Monitor, error) {
	if len(plantProcs) == 0 {
		return nil, fmt.Errorf("tioco: no plant processes given")
	}
	for _, pi := range plantProcs {
		if pi < 0 || pi >= len(sys.Procs) {
			return nil, fmt.Errorf("tioco: plant process %d out of range", pi)
		}
		for _, e := range sys.Procs[pi].Edges {
			if e.Dir == model.NoSync {
				return nil, fmt.Errorf("tioco: plant process %s has internal edges; the monitor requires observable actions", sys.Procs[pi].Name)
			}
		}
	}
	m := &Monitor{sys: sys, plant: plantProcs, scale: scale, ceil: sys.ClockCeilings(plantProcs, scale)}
	m.Reset()
	return m, nil
}

// Reset restores the monitor to the initial specification state.
func (m *Monitor) Reset() {
	init := &state{
		locs: make([]int, len(m.plant)),
		vars: m.sys.Vars.InitialEnv(),
		val:  make([]int64, m.sys.NumClocks()-1),
	}
	for k, pi := range m.plant {
		init.locs[k] = m.sys.Procs[pi].Init
	}
	m.states = append(m.states[:0], init)
	m.trace = m.trace[:0]
}

// StateCount returns the number of live hypotheses (1 for deterministic
// specifications).
func (m *Monitor) StateCount() int { return len(m.states) }

// AppendSnapshot appends a canonical encoding of the hypothesis list to
// key: the hypothesis count, then per hypothesis in order its plant
// locations, variables and clocks clamped to their ceilings over the plant
// processes. Monitors whose encodings are equal hold the same hypotheses
// up to clock values no plant constraint tells apart, so they accept and
// reject the same future moves.
func (m *Monitor) AppendSnapshot(key []int64) []int64 {
	key = append(key, int64(len(m.states)))
	for _, s := range m.states {
		for _, l := range s.locs {
			key = append(key, int64(l))
		}
		for _, v := range s.vars {
			key = append(key, int64(v))
		}
		for i, v := range s.val {
			key = append(key, model.Clamp(v, m.ceil[i]))
		}
	}
	return key
}

// Trace returns the observed trace rendered for diagnostics.
func (m *Monitor) Trace() string { return m.trace.Format(m.sys, m.scale) }

// guardHolds evaluates an edge's guard in a hypothesis state.
func (m *Monitor) guardHolds(e *model.Edge, s *state) bool {
	if e.Guard.Data != nil {
		m.ctx = expr.Ctx{Tbl: m.sys.Vars, Env: s.vars}
		if ok, err := expr.Truth(&m.ctx, e.Guard.Data); err != nil || !ok {
			return false
		}
	}
	for _, c := range e.Guard.Clocks {
		var vi, vj int64
		if c.I > 0 {
			vi = s.val[c.I-1]
		}
		if c.J > 0 {
			vj = s.val[c.J-1]
		}
		if !c.Bound.SatisfiedBy(vi-vj, m.scale) {
			return false
		}
	}
	return true
}

// maxDelay computes how long the hypothesis may let time pass (plant
// invariants only).
func (m *Monitor) maxDelay(s *state, horizon int64) int64 {
	best := horizon
	for k, pi := range m.plant {
		loc := &m.sys.Procs[pi].Locations[s.locs[k]]
		if loc.Urgent || loc.Committed {
			return 0
		}
		for _, c := range loc.Invariant {
			if c.I == 0 || c.J != 0 {
				continue
			}
			lim := int64(c.Bound.Value())*m.scale - s.val[c.I-1]
			if c.Bound.Strict() {
				lim--
			}
			if lim < 0 {
				lim = 0
			}
			if lim < best {
				best = lim
			}
		}
	}
	return best
}

// fire takes the plant edge in a copy of the hypothesis, reusing a
// dropped hypothesis's memory when there is one.
func (m *Monitor) fire(e *model.Edge, plantSlot int, s *state) (*state, error) {
	var n *state
	if k := len(m.free); k > 0 {
		n = m.free[k-1]
		m.free = m.free[:k-1]
		copy(n.locs, s.locs)
		copy(n.vars, s.vars)
		copy(n.val, s.val)
	} else {
		n = &state{
			locs: slices.Clone(s.locs),
			vars: slices.Clone(s.vars),
			val:  slices.Clone(s.val),
		}
	}
	n.locs[plantSlot] = e.Dst
	m.ctx = expr.Ctx{Tbl: m.sys.Vars, Env: n.vars}
	if err := expr.ApplyAll(&m.ctx, e.Assigns); err != nil {
		return nil, err
	}
	for _, r := range e.Resets {
		n.val[r.Clock-1] = int64(r.Value) * m.scale
	}
	return n, nil
}

// Delay records that d ticks passed with no observable action. It fails
// when no specification state allows the plant to stay silent that long
// (e.g. an invariant forces an output earlier).
func (m *Monitor) Delay(d int64) error {
	next := m.next[:0]
	for _, s := range m.states {
		if m.maxDelay(s, d) >= d {
			next = append(next, s) // the others force an action before d
		}
	}
	m.trace = append(m.trace, tiots.Event{Delay: d, Chan: -1})
	if len(next) == 0 {
		return &Violation{Kind: "delay", Detail: fmt.Sprintf("implementation stayed quiet for %d ticks but the specification forces an output earlier (after %s)", d, m.Trace())}
	}
	for _, s := range next {
		for i := range s.val {
			s.val[i] += d
		}
	}
	m.commit(next)
	return nil
}

// Input records that the tester offered an input on the channel. The spec
// is assumed strongly input-enabled; hypotheses without an enabled input
// edge keep their state (the input is ignored there), matching the common
// "button does nothing" semantics.
func (m *Monitor) Input(chanIdx int) error {
	if chanIdx < 0 || chanIdx >= len(m.sys.Channels) || m.sys.Channels[chanIdx].Kind != model.Controllable {
		return fmt.Errorf("tioco: channel %d is not an input channel", chanIdx)
	}
	next := m.next[:0]
	for _, s := range m.states {
		fired := false
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir != model.Receive || e.Chan != chanIdx {
					continue
				}
				if !m.guardHolds(e, s) {
					continue
				}
				n, err := m.fire(e, k, s)
				if err != nil {
					return err
				}
				next = append(next, n)
				fired = true
			}
		}
		if !fired {
			next = append(next, s) // input ignored in this hypothesis
		}
	}
	m.trace = append(m.trace, tiots.Event{Chan: chanIdx, Kind: model.Controllable})
	m.commit(next)
	return nil
}

// Output records an observed plant output; it returns a Violation when the
// specification does not allow the output here (the Fail case of
// Algorithm 3.1).
func (m *Monitor) Output(chanIdx int) error {
	if chanIdx < 0 || chanIdx >= len(m.sys.Channels) || m.sys.Channels[chanIdx].Kind != model.Uncontrollable {
		return &Violation{Kind: "output", Detail: fmt.Sprintf("observed action on non-output channel %d", chanIdx)}
	}
	next := m.next[:0]
	for _, s := range m.states {
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir != model.Emit || e.Chan != chanIdx {
					continue
				}
				if !m.guardHolds(e, s) {
					continue
				}
				n, err := m.fire(e, k, s)
				if err != nil {
					return err
				}
				next = append(next, n)
			}
		}
	}
	m.trace = append(m.trace, tiots.Event{Chan: chanIdx, Kind: model.Uncontrollable})
	if len(next) == 0 {
		return &Violation{Kind: "output", Detail: fmt.Sprintf("output %s! not allowed by the specification (after %s; allowed: %s)", m.sys.Channels[chanIdx].Name, m.Trace(), m.AllowedOutputs())}
	}
	m.commit(next)
	return nil
}

// AllowedOutputs lists the outputs the specification currently allows
// (diagnostics; part of Out(s After σ)).
func (m *Monitor) AllowedOutputs() string {
	seen := map[string]bool{}
	for _, s := range m.states {
		for k, pi := range m.plant {
			p := m.sys.Procs[pi]
			for _, ei := range p.OutEdges(s.locs[k]) {
				e := &p.Edges[ei]
				if e.Dir == model.Emit && m.guardHolds(e, s) {
					seen[m.sys.Channels[e.Chan].Name+"!"] = true
				}
			}
		}
	}
	if len(seen) == 0 {
		return "none"
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// commit makes next the live hypotheses, keeping the first occurrence of
// each distinct state. Hypotheses that do not survive — replaced ones and
// duplicates — go to the free list; none of them is referenced elsewhere.
func (m *Monitor) commit(next []*state) {
	for _, s := range m.states {
		if !slices.Contains(next, s) {
			m.free = append(m.free, s)
		}
	}
	kept := next[:0]
	for _, s := range next {
		if slices.ContainsFunc(kept, s.equal) {
			m.free = append(m.free, s)
		} else {
			kept = append(kept, s)
		}
	}
	m.states, m.next = kept, m.states[:0]
}
