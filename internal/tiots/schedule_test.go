package tiots

import (
	"testing"

	"tigatest/internal/model"
)

// threeEmitters builds three plant processes, each with one output edge
// from its initial location; all three windows open together at x = 1.
// The environment receives every output. edges holds the global IDs of the output edges.
func threeEmitters() (s *model.System, chans, edges [3]int) {
	s = model.NewSystem("emitters")
	x := s.AddClock("x")
	for i, name := range []string{"a", "b", "c"} {
		chans[i] = s.AddChannel(name, model.Uncontrollable)
	}
	for i, name := range []string{"P", "Q", "R"} {
		p := s.AddProcess(name)
		l0 := p.AddLocation(model.Location{Name: "L0"})
		l1 := p.AddLocation(model.Location{Name: "L1"})
		edges[i] = p.Edges[s.AddEdge(p, model.Edge{Src: l0, Dst: l1, Dir: model.Emit, Chan: chans[i],
			Guard: model.Guard{Clocks: []model.ClockConstraint{model.GE(x, 1)}}})].ID
	}
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	for _, ch := range chans {
		s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: ch})
	}
	return s, chans, edges
}

// TestDetIUTSameTickOutputsFireInPriorityOrder pins the tie-break between
// outputs due at the same tick: lower priority value first, whatever the
// enumeration order.
func TestDetIUTSameTickOutputsFireInPriorityOrder(t *testing.T) {
	s, chans, edges := threeEmitters()
	policy := &DetPolicy{Priority: map[int]int{edges[2]: 1, edges[0]: 2, edges[1]: 3}}
	iut := NewDetIUT(s, Scale, policy)
	want := []Output{{Chan: chans[2], After: Scale}, {Chan: chans[0], After: 0}, {Chan: chans[1], After: 0}}
	for i, w := range want {
		out := iut.Advance(2 * Scale)
		if out == nil || *out != w {
			t.Fatalf("output %d: got %+v, want %+v", i, out, w)
		}
	}
	if out := iut.Advance(2 * Scale); out != nil {
		t.Fatalf("every output has fired; got %+v", out)
	}

	// Without a Priority map the edge ID decides: a, b, c.
	iut = NewDetIUT(s, Scale, nil)
	for i, ch := range chans {
		out := iut.Advance(2 * Scale)
		if out == nil || out.Chan != ch || out.After != want[i].After {
			t.Fatalf("default priority, output %d: got %+v, want channel %d after %d ticks", i, out, ch, want[i].After)
		}
	}
}

// TestDetIUTEqualPriorityFallsBackToEnumerationOrder covers one emitter
// with two receivers: both synchronizations share the emitter's edge ID as
// their priority, so the first enumerated one (the lower receiver process)
// fires.
func TestDetIUTEqualPriorityFallsBackToEnumerationOrder(t *testing.T) {
	s := model.NewSystem("fanout")
	s.AddClock("x")
	out := s.AddChannel("out", model.Uncontrollable)
	sink := s.AddChannel("sink", model.Uncontrollable)
	p := s.AddProcess("P")
	p0 := p.AddLocation(model.Location{Name: "P0"})
	p1 := p.AddLocation(model.Location{Name: "P1"})
	s.AddEdge(p, model.Edge{Src: p0, Dst: p1, Dir: model.Emit, Chan: out})
	var recv [2]int
	for i, name := range []string{"R1", "R2"} {
		r := s.AddProcess(name)
		r0 := r.AddLocation(model.Location{Name: "Wait"})
		r1 := r.AddLocation(model.Location{Name: "Got"})
		recv[i] = r.Edges[s.AddEdge(r, model.Edge{Src: r0, Dst: r1, Dir: model.Receive, Chan: out})].ID
	}
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: sink})

	cases := []struct {
		policy *DetPolicy
		taker  int // process index of the receiver that synchronizes
	}{
		{nil, 1},
		// A priority entry on R2's receive edge breaks the tie its way.
		{&DetPolicy{Priority: map[int]int{recv[1]: -1}}, 2},
	}
	for _, c := range cases {
		iut := NewDetIUT(s, Scale, c.policy)
		o := iut.Advance(Scale)
		if o == nil || o.Chan != out || o.After != 0 {
			t.Fatalf("policy %+v: expected out! at once, got %+v", c.policy, o)
		}
		locs := iut.State().Locs
		if locs[c.taker] != 1 || locs[3-c.taker] != 0 {
			t.Fatalf("policy %+v: receiver process %d must take out!, got locations %v", c.policy, c.taker, locs)
		}
	}
}
