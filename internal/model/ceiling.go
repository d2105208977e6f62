package model

import (
	"math"
	"slices"
)

// Clock ceilings for canonical concrete configurations.
//
// A concrete clock value above the largest constant any non-diagonal guard
// or invariant compares the clock with satisfies exactly the same plain
// constraints as every other value above it, and a reset sets the clock to
// a constant. So all such values are interchangeable: a simulator that
// encodes its configuration may replace them by one representative and two
// configurations that encode alike behave alike forever (texec's cycle
// detection relies on this). A clock read by a difference constraint has
// no such ceiling — its distance to the other clock matters — and is
// encoded exactly.

const (
	// unread is the ceiling, in ticks, of a clock no constraint reads:
	// Clamp maps every value of it to 0.
	unread = int64(-1)
	// unclamped is the ceiling of a clock that appears in a difference
	// constraint: Clamp never changes its value.
	unclamped = int64(math.MaxInt64)
)

// Clamp returns the representative of clock value v (ticks) under the
// ceiling c (ticks, from ClockCeilings): v itself up to c, c+1 above it.
func Clamp(v, c int64) int64 {
	if v > c {
		return c + 1
	}
	return v
}

// ceilingEntry is one cached ClockCeilings result.
type ceilingEntry struct {
	procs []int // nil: every process
	scale int64
	ceil  []int64
}

// ClockCeilings returns, for every clock (index i-1 for clock i, like
// concrete valuations), the largest constant in ticks that a non-diagonal
// guard or invariant of the given processes (every process when procs is
// nil) compares it with. A clock no such constraint reads gets a ceiling
// under which Clamp maps every value to 0; a clock in a difference
// constraint one under which Clamp keeps every value.
//
// The result is computed once per system, process set and scale, cached
// on the system, and shared: callers must not modify it. Like every other
// consumer, the cache assumes the system is no longer edited once it is
// executed.
func (s *System) ClockCeilings(procs []int, scale int64) []int64 {
	for {
		cur := s.ceilings.Load()
		if cur != nil {
			for _, e := range *cur {
				if e.scale == scale && slices.Equal(e.procs, procs) && (e.procs == nil) == (procs == nil) {
					return e.ceil
				}
			}
		}
		e := ceilingEntry{procs: slices.Clone(procs), scale: scale, ceil: s.computeCeilings(procs, scale)}
		var next []ceilingEntry
		if cur != nil {
			next = append(next, *cur...)
		}
		next = append(next, e)
		if s.ceilings.CompareAndSwap(cur, &next) {
			return e.ceil
		}
	}
}

func (s *System) computeCeilings(procs []int, scale int64) []int64 {
	ceil := make([]int64, s.NumClocks()-1)
	for i := range ceil {
		ceil[i] = unread
	}
	note := func(cs []ClockConstraint) {
		for _, c := range cs {
			if c.Bound.IsInf() {
				continue
			}
			if c.I > 0 && c.J > 0 {
				ceil[c.I-1], ceil[c.J-1] = unclamped, unclamped
				continue
			}
			k := int64(c.Bound.Value())
			if k < 0 {
				k = -k
			}
			k *= scale
			for _, x := range [2]int{c.I, c.J} {
				if x > 0 && ceil[x-1] != unclamped && k > ceil[x-1] {
					ceil[x-1] = k
				}
			}
		}
	}
	visit := func(p *Process) {
		for _, l := range p.Locations {
			note(l.Invariant)
		}
		for _, e := range p.Edges {
			note(e.Guard.Clocks)
		}
	}
	if procs == nil {
		for _, p := range s.Procs {
			visit(p)
		}
	} else {
		for _, pi := range procs {
			visit(s.Procs[pi])
		}
	}
	return ceil
}
