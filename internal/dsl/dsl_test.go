package dsl

import (
	"strings"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

const beeperSrc = `
// A tiny plant: press arms it, it beeps within a window.
system beeper

clock w
chan press : input
chan beep : output

process Plant {
    init Idle
    location Idle
    location Armed { inv w<=5 }
    edge Idle -> Armed on press? do { w := 0 }
    edge Armed -> Idle on beep! when w>=2 && w<=4
}

process Env {
    init E
    location E
    edge E -> E on press!
    edge E -> E on beep?
}
`

func TestParseBeeper(t *testing.T) {
	f, err := Parse(beeperSrc)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Sys
	if s.Name != "beeper" {
		t.Errorf("system name = %q", s.Name)
	}
	if s.NumClocks() != 2 {
		t.Errorf("clocks = %d, want 2 (w + reference)", s.NumClocks())
	}
	if len(s.Channels) != 2 {
		t.Errorf("channels = %d", len(s.Channels))
	}
	pi, ok := s.ProcByName("Plant")
	if !ok {
		t.Fatal("Plant process missing")
	}
	p := s.Procs[pi]
	if len(p.Locations) != 2 || len(p.Edges) != 2 {
		t.Fatalf("plant shape wrong: %d locations, %d edges", len(p.Locations), len(p.Edges))
	}
	armed, _ := p.LocByName("Armed")
	if len(p.Locations[armed].Invariant) != 1 {
		t.Error("Armed must carry its invariant")
	}
	if p.Edges[1].Kind != model.Uncontrollable {
		t.Error("beep! must be uncontrollable")
	}
	if len(p.Edges[1].Guard.Clocks) != 2 {
		t.Errorf("beep guard must have two conjuncts, got %d", len(p.Edges[1].Guard.Clocks))
	}
}

func TestParsedModelSolves(t *testing.T) {
	f := MustParse(beeperSrc)
	// Forcing: press, then the invariant forces beep within [2,5]∩[2,4].
	formula := tctl.MustParse(f.ParseEnv(), "control: A<> Plant.Idle and w >= 2")
	res, err := game.Solve(f.Sys, formula, game.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("press-then-forced-beep must be winnable")
	}
}

func TestParseWithVarsAndRanges(t *testing.T) {
	src := `
system counter
clock x
range Slots = 0..2
int n = 0 range 0..3
int used[3] = {0,0,0} range 0..1
chan tick : input

process P {
    init A
    location A
    location B
    edge A -> A tau input when n < 3 && x >= 1 do { n := n + 1, used[n - 1] := 1, x := 0 }
    edge A -> B on tick? when n == 3
}
process Env {
    init E
    location E
    edge E -> E on tick!
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := f.Ranges["Slots"]; !ok || r.Lo != 0 || r.Hi != 2 {
		t.Fatalf("range Slots wrong: %+v", f.Ranges)
	}
	formula := tctl.MustParse(f.ParseEnv(), "control: A<> forall (i : Slots) used[i] == 1")
	res, err := game.Solve(f.Sys, formula, game.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Winnable {
		t.Fatal("filling all slots must be winnable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"no system", "clock x\n"},
		{"bad decl", "system s\nfrobnicate\n"},
		{"unknown channel", "system s\nprocess P { init A\nlocation A\nedge A -> A on nosuch? }"},
		{"bad chan kind", "system s\nchan c : sideways\n"},
		{"unknown location", "system s\nchan c : input\nprocess P { init A\nlocation A\nedge A -> Nowhere on c? }\nprocess Q { init B\nlocation B\nedge B -> B on c! }"},
		{"bad range", "system s\nint v range 5..1\n"},
		{"unpaired sync", "system s\nchan c : input\nprocess P { init A\nlocation A\nedge A -> A on c? }"},
		{"bad init", "system s\nprocess P { init Nowhere\nlocation A }"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestParseDuplicateNames: a name declared twice is a parse error with a
// line number, never a panic from the model builder.
func TestParseDuplicateNames(t *testing.T) {
	cases := []struct{ src, want string }{
		{"system s\nclock x, y\nclock x\n", "dsl: line 3: duplicate clock x"},
		{"system s\nchan a : input\nchan b, a : output\n", "dsl: line 3: duplicate channel a"},
		{"system s\nchan a, a : input\n", "dsl: line 2: duplicate channel a"},
		{"system s\nprocess P { location A }\nprocess P { location B }\n", "dsl: line 3: duplicate process P"},
		{"system s\nprocess A { location U\nlocation U }", "dsl: line 3: duplicate location U in A"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
// leading comment
system s

# hash comment
clock x   // trailing comment

process P {
    init A

    location A
    edge A -> A tau input // loop
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripBeeper(t *testing.T) {
	f := MustParse(beeperSrc)
	printed := Print(f.Sys, f.Ranges)
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n--- printed ---\n%s", err, printed)
	}
	// Structural spot checks.
	if len(f2.Sys.Procs) != len(f.Sys.Procs) || f2.Sys.NumClocks() != f.Sys.NumClocks() {
		t.Fatal("round trip changed the system shape")
	}
	// Behavioural equivalence on a game.
	for _, goal := range []string{"control: A<> Plant.Armed", "control: A<> Plant.Idle and w >= 2"} {
		r1, err1 := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), goal), game.Options{})
		r2, err2 := game.Solve(f2.Sys, tctl.MustParse(f2.ParseEnv(), goal), game.Options{})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Winnable != r2.Winnable || r1.Stats.Nodes != r2.Stats.Nodes {
			t.Fatalf("round trip changed game semantics for %s", goal)
		}
	}
}

func TestRoundTripSmartLight(t *testing.T) {
	sys := models.SmartLight()
	printed := Print(sys, nil)
	f, err := Parse(printed)
	if err != nil {
		t.Fatalf("smartlight did not reparse: %v\n--- printed ---\n%s", err, printed)
	}
	goal := models.SmartLightGoal
	r1, err1 := game.Solve(sys, tctl.MustParse(models.SmartLightEnv(sys), goal), game.Options{})
	r2, err2 := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), goal), game.Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Winnable != r2.Winnable || r1.Stats.Nodes != r2.Stats.Nodes {
		t.Fatal("round trip changed the smartlight game")
	}
}

func TestRoundTripLEP(t *testing.T) {
	n := 3
	sys := models.LEP(models.LEPOptions{Nodes: n})
	env := models.LEPEnv(sys, n)
	printed := Print(sys, env.Ranges)
	f, err := Parse(printed)
	if err != nil {
		t.Fatalf("LEP did not reparse: %v\n--- printed ---\n%s", err, printed)
	}
	r1, err1 := game.Solve(sys, tctl.MustParse(env, models.LEPTP1), game.Options{EarlyTermination: true})
	r2, err2 := game.Solve(f.Sys, tctl.MustParse(f.ParseEnv(), models.LEPTP1), game.Options{EarlyTermination: true})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Winnable != r2.Winnable {
		t.Fatal("round trip changed the LEP game")
	}
}

func TestPrintedFormIsStable(t *testing.T) {
	f := MustParse(beeperSrc)
	p1 := Print(f.Sys, f.Ranges)
	f2 := MustParse(p1)
	p2 := Print(f2.Sys, f2.Ranges)
	if p1 != p2 {
		t.Fatalf("printing is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
	}
	if !strings.Contains(p1, "edge Armed -> Idle on beep! when w>=2 && w<=4") {
		t.Errorf("printed form unexpected:\n%s", p1)
	}
}
