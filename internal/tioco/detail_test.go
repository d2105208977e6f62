package tioco

import (
	"errors"
	"testing"

	"tigatest/internal/model"
	"tigatest/internal/tiots"
)

// TestViolationDetailGolden pins the diagnostic strings byte for byte:
// campaign reports carry them as verdict reasons, so any change in how
// the monitor renders its observed trace changes report bytes.
func TestViolationDetailGolden(t *testing.T) {
	const sc = tiots.Scale
	cases := []struct {
		name  string
		steps func(m *Monitor, ch map[string]int) error
		kind  string
		want  string
	}{
		{
			name: "delay",
			steps: func(m *Monitor, ch map[string]int) error {
				return firstErr(m.Input(ch["touch"]), m.Delay(sc+sc/2), m.Output(ch["dim"]),
					m.Delay(4*sc), m.Input(ch["touch"]), m.Delay(3*sc))
			},
			kind: "delay",
			want: "implementation stayed quiet for 720 ticks but the specification forces an output earlier (after touch? · 1.500 · dim! · 4.000 · touch? · 3.000)",
		},
		{
			name: "output",
			steps: func(m *Monitor, ch map[string]int) error {
				return firstErr(m.Delay(25*sc), m.Input(ch["touch"]), m.Delay(sc/4+1), m.Output(ch["off"]))
			},
			kind: "output",
			want: "output off! not allowed by the specification (after 25.000 · touch? · 0.254 · off!; allowed: bright!,dim!)",
		},
		{
			name: "output after ignored input",
			steps: func(m *Monitor, ch map[string]int) error {
				return firstErr(m.Input(ch["touch"]), m.Input(ch["touch"]), m.Delay(1), m.Output(ch["bright"]))
			},
			kind: "output",
			want: "output bright! not allowed by the specification (after touch? · touch? · 0.004 · bright!; allowed: dim!)",
		},
		{
			name: "non-output channel",
			steps: func(m *Monitor, ch map[string]int) error {
				return firstErr(m.Input(ch["touch"]), m.Output(ch["touch"]))
			},
			kind: "output",
			want: "observed action on non-output channel 0",
		},
	}
	for _, c := range cases {
		m, ch := lightMonitor(t)
		err := c.steps(m, ch)
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("%s: expected a Violation, got %v", c.name, err)
		}
		if v.Kind != c.kind || v.Detail != c.want {
			t.Errorf("%s: got %s violation %q\nwant %s violation %q", c.name, v.Kind, v.Detail, c.kind, c.want)
		}
	}

	// The rendered trace of an accepted run, and the input-channel error.
	m, ch := lightMonitor(t)
	if err := firstErr(m.Input(ch["touch"]), m.Delay(2*sc), m.Output(ch["dim"])); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Trace(), "touch? · 2.000 · dim!"; got != want {
		t.Errorf("Trace() = %q, want %q", got, want)
	}
	if err := m.Input(ch["dim"]); err == nil || err.Error() != "tioco: channel 2 is not an input channel" {
		t.Errorf("input on an output channel: got %v", err)
	}
}

// firstErr returns the first error of an already evaluated step sequence.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestNondeterministicHypothesesMerge drives a specification whose input
// splits the monitor into two hypotheses that the next output merges
// again: go? may lead to A or B, and both answer done! into the same
// configuration.
func TestNondeterministicHypothesesMerge(t *testing.T) {
	s := model.NewSystem("split")
	x := s.AddClock("x")
	goCh := s.AddChannel("go", model.Controllable)
	done := s.AddChannel("done", model.Uncontrollable)
	p := s.AddProcess("P")
	init := p.AddLocation(model.Location{Name: "Init"})
	a := p.AddLocation(model.Location{Name: "A", Invariant: []model.ClockConstraint{model.LE(x, 2)}})
	b := p.AddLocation(model.Location{Name: "B", Invariant: []model.ClockConstraint{model.LE(x, 3)}})
	fin := p.AddLocation(model.Location{Name: "Done"})
	reset := []model.ClockReset{{Clock: x}}
	s.AddEdge(p, model.Edge{Src: init, Dst: a, Dir: model.Receive, Chan: goCh, Resets: reset})
	s.AddEdge(p, model.Edge{Src: init, Dst: b, Dir: model.Receive, Chan: goCh, Resets: reset})
	s.AddEdge(p, model.Edge{Src: a, Dst: fin, Dir: model.Emit, Chan: done, Resets: reset})
	s.AddEdge(p, model.Edge{Src: b, Dst: fin, Dir: model.Emit, Chan: done, Resets: reset})
	env := s.AddProcess("Env")
	e0 := env.AddLocation(model.Location{Name: "E0"})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Emit, Chan: goCh})
	s.AddEdge(env, model.Edge{Src: e0, Dst: e0, Dir: model.Receive, Chan: done})

	m, err := NewMonitor(s, []int{0}, tiots.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Input(goCh); err != nil {
		t.Fatal(err)
	}
	if n := m.StateCount(); n != 2 {
		t.Fatalf("go? must split the monitor into two hypotheses, got %d", n)
	}
	// Waiting 2.5 units rules out A (x<=2) but keeps B (x<=3).
	if err := m.Delay(5 * tiots.Scale / 2); err != nil {
		t.Fatal(err)
	}
	if n := m.StateCount(); n != 1 {
		t.Fatalf("the delay must prune A, got %d hypotheses", n)
	}

	m.Reset()
	if err := firstErr(m.Input(goCh), m.Delay(tiots.Scale)); err != nil {
		t.Fatal(err)
	}
	if n := m.StateCount(); n != 2 {
		t.Fatalf("a 1-unit wait keeps both hypotheses, got %d", n)
	}
	if err := m.Output(done); err != nil {
		t.Fatal(err)
	}
	if n := m.StateCount(); n != 1 {
		t.Fatalf("done! leads both hypotheses to (Done, x=0); they must merge, got %d", n)
	}
	if got, want := m.Trace(), "go? · 1.000 · done!"; got != want {
		t.Errorf("Trace() = %q, want %q", got, want)
	}
}
