package model

import (
	"fmt"
	"sync"
	"testing"
)

func ceilingFixture() (*System, int, int, int, int) {
	s := NewSystem("ceilings")
	x := s.AddClock("x")
	y := s.AddClock("y")
	z := s.AddClock("z")
	u := s.AddClock("u") // read by no constraint
	a := s.AddChannel("a", Controllable)
	p := s.AddProcess("P")
	l0 := p.AddLocation(Location{Name: "L0", Invariant: []ClockConstraint{LE(x, 7)}})
	l1 := p.AddLocation(Location{Name: "L1"})
	s.AddEdge(p, Edge{Src: l0, Dst: l1, Dir: Receive, Chan: a,
		Guard:  Guard{Clocks: []ClockConstraint{GT(x, 3), DiffLE(y, z, 2)}},
		Resets: []ClockReset{{Clock: u, Value: 9}}})
	q := s.AddProcess("Q")
	q0 := q.AddLocation(Location{Name: "Q0", Invariant: []ClockConstraint{LT(x, 11)}})
	s.AddEdge(q, Edge{Src: q0, Dst: q0, Dir: Emit, Chan: a})
	return s, x, y, z, u
}

// TestClampPreservesConstraints: around a clock's ceiling k, the clamped
// value satisfies every plain constraint with a constant up to k — upper
// bounds x<c, x<=c and lower bounds x>c, x>=c (stored as 0 - x) — exactly
// when the raw value does.
func TestClampPreservesConstraints(t *testing.T) {
	const scale = 240
	for _, k := range []int{0, 1, 4, 11} {
		s := NewSystem("one")
		x := s.AddClock("x")
		p := s.AddProcess("P")
		p.AddLocation(Location{Name: "L", Invariant: []ClockConstraint{LE(x, k)}})
		ceil := s.ClockCeilings(nil, scale)
		if want := int64(k) * scale; ceil[x-1] != want {
			t.Fatalf("k=%d: ceiling %d, want %d", k, ceil[x-1], want)
		}
		for _, v := range []int64{int64(k)*scale - 1, int64(k) * scale, int64(k)*scale + 1, int64(k)*scale + 5} {
			if v < 0 {
				continue
			}
			cv := Clamp(v, ceil[x-1])
			for c := 0; c <= k; c++ {
				cons := []ClockConstraint{LT(x, c), LE(x, c), GT(x, c), GE(x, c)}
				for _, cc := range cons {
					sat := func(val int64) bool {
						if cc.I == 0 {
							return cc.Bound.SatisfiedBy(-val, scale)
						}
						return cc.Bound.SatisfiedBy(val, scale)
					}
					if sat(v) != sat(cv) {
						t.Errorf("k=%d: %s holds at %d ticks but not at its representative %d (or vice versa)",
							k, cc.String(s), v, cv)
					}
				}
			}
		}
	}
}

// TestClockCeilings: the ceiling is the largest plain constant over the
// chosen processes; difference constraints and unread clocks are marked,
// and results are cached per process set and scale.
func TestClockCeilings(t *testing.T) {
	s, x, y, z, u := ceilingFixture()
	const scale = 10
	all := s.ClockCeilings(nil, scale)
	want := []int64{11 * scale, unclamped, unclamped, unread}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Errorf("ceilings over every process %v, want %v", all, want)
	}
	onlyP := s.ClockCeilings([]int{0}, scale)
	if onlyP[x-1] != 7*scale {
		t.Errorf("ceiling of x over P alone %d, want %d", onlyP[x-1], 7*scale)
	}
	onlyQ := s.ClockCeilings([]int{1}, scale)
	if onlyQ[y-1] != unread || onlyQ[z-1] != unread {
		t.Errorf("Q reads neither y nor z, got ceilings %d, %d", onlyQ[y-1], onlyQ[z-1])
	}
	// A clock in a difference constraint keeps its exact value.
	for _, v := range []int64{0, 5, 1 << 40} {
		if Clamp(v, all[y-1]) != v || Clamp(v, all[z-1]) != v {
			t.Errorf("diagonal clocks clamped at %d", v)
		}
	}
	// An unread clock has one representative (resets do not read it).
	if Clamp(0, all[u-1]) != Clamp(9*scale, all[u-1]) {
		t.Error("unread clock values must share a representative")
	}
	if &s.ClockCeilings(nil, scale)[0] != &all[0] || &s.ClockCeilings([]int{0}, scale)[0] != &onlyP[0] {
		t.Error("ceilings must be computed once per system, process set and scale")
	}
	if s.ClockCeilings(nil, 2*scale)[x-1] != 11*2*scale {
		t.Error("ceilings are in ticks of the requested scale")
	}
	if c := s.Clone().ClockCeilings(nil, scale); &c[0] == &all[0] {
		t.Error("a clone must not share its source's cache")
	}
}

// TestClockCeilingsConcurrent: campaign workers build implementations of
// one system at once, so the cache must tolerate concurrent first calls
// (run with -race).
func TestClockCeilingsConcurrent(t *testing.T) {
	s, _, _, _, _ := ceilingFixture()
	var wg sync.WaitGroup
	got := make([][]int64, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.ClockCeilings([]int{i % 2}, 10)
		}()
	}
	wg.Wait()
	for i, c := range got {
		if want := s.ClockCeilings([]int{i % 2}, 10); fmt.Sprint(c) != fmt.Sprint(want) {
			t.Errorf("goroutine %d: ceilings %v, want %v", i, c, want)
		}
	}
}
