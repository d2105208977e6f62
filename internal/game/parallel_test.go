package game

import (
	"fmt"
	"math/rand"
	"testing"

	"tigatest/internal/dbm"
	"tigatest/internal/models"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// fedsEquivalent compares two win federations semantically. Equals is
// always the deciding check: the SCC propagation schedule is free to
// produce different zone decompositions of the same winning set, so
// neither decomposition hashes nor zone counts may be asserted across
// worker counts.
func fedsEquivalent(a, b *dbm.Federation) bool {
	return a.Equals(b)
}

// checkSameGraph asserts that two solves of one game built the same graph
// — node i holds the same state and the same successor list, in the same
// order, in both — and reached semantically equal winning sets. Wiring is
// sequential, so this holds for any two worker counts. It also asserts the
// node store interned every state once (a corrupted zone shows up as a
// duplicate).
func checkSameGraph(t *testing.T, what string, a, b *Result) {
	t.Helper()
	if a.Winnable != b.Winnable {
		t.Fatalf("%s: winnable %v vs %v", what, a.Winnable, b.Winnable)
	}
	if len(a.debugNodes) != len(b.debugNodes) || a.Stats.Transitions != b.Stats.Transitions {
		t.Fatalf("%s: graphs differ: %d nodes/%d transitions vs %d/%d", what,
			len(a.debugNodes), a.Stats.Transitions, len(b.debugNodes), b.Stats.Transitions)
	}
	seen := make(map[string]int, len(a.debugNodes))
	for i := range a.debugNodes {
		na, nb := a.debugNodes[i], b.debugNodes[i]
		k := fmt.Sprintf("%v|%v|%x", na.st.Locs, na.st.Vars, na.st.Zone.Hash())
		if j, dup := seen[k]; dup {
			t.Fatalf("%s: nodes %d and %d hold the same state", what, j, i)
		}
		seen[k] = i
		if !na.st.EqualTo(nb.st) {
			t.Fatalf("%s: node %d holds different states", what, i)
		}
		if len(na.succs) != len(nb.succs) {
			t.Fatalf("%s: node %d has %d vs %d successors", what, i, len(na.succs), len(nb.succs))
		}
		for j := range na.succs {
			sa, sb := &na.succs[j], &nb.succs[j]
			if sa.target != sb.target || !sameEdges(&sa.trans, &sb.trans) {
				t.Fatalf("%s: node %d successor %d: %s->%d vs %s->%d", what, i, j,
					sa.trans.Label, sa.target, sb.trans.Label, sb.target)
			}
		}
		if !fedsEquivalent(na.win, nb.win) {
			t.Errorf("%s: win sets differ at node %d:\n  a: %s\n  b: %s", what, i, na.win, nb.win)
		}
	}
}

// sameEdges reports whether two transitions fire the same edges.
func sameEdges(a, b *symbolic.Transition) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i].ID != b.Edges[i].ID {
			return false
		}
	}
	return true
}

// checkParallelAgreement solves the same game at Workers 1 and Workers 8
// under both algorithms and asserts the same graph, node for node, with
// semantically equal winning federations.
func checkParallelAgreement(t *testing.T, env *tctl.ParseEnv, src string) {
	t.Helper()
	f := tctl.MustParse(env, src)
	for _, alg := range []Algorithm{OnTheFly, Backward} {
		one, err := Solve(env.Sys, f, Options{Algorithm: alg, Workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", alg, err)
		}
		eight, err := Solve(env.Sys, f, Options{Algorithm: alg, Workers: 8})
		if err != nil {
			t.Fatalf("%s workers=8: %v", alg, err)
		}
		checkSameGraph(t, fmt.Sprintf("%s %q workers 1 vs 8", alg, src), one, eight)
	}
}

func TestParallelMatchesSerialSmartLight(t *testing.T) {
	checkParallelAgreement(t, models.SmartLightEnv(models.SmartLight()), models.SmartLightGoal)
}

func TestParallelMatchesSerialLEP(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	env := models.LEPEnv(sys, 3)
	for _, src := range []string{models.LEPTP1, models.LEPTP2} {
		checkParallelAgreement(t, env, src)
	}
}

func TestParallelMatchesSerialTrainGate(t *testing.T) {
	env := models.TrainGateEnv(models.TrainGate())
	for _, src := range []string{
		"control: A<> Gate.Closed",                       // reachability, winnable
		"control: A[] not Train.Crossing or Gate.Closed", // safety dual, winnable
		"control: A<> Train.Crossing and Gate.Closed",    // not winnable
	} {
		checkParallelAgreement(t, env, src)
	}
}

// TestParallelMatchesSerialLEP4 runs the benchmark-sized LEP instance
// (n=4, TP2) at Workers 1 and 8. This size caught a real bug during
// development — a zone shared with a node store entry was returned to the
// allocator and corrupted the state interning — that the n=3 games were
// too small to expose, so it stays pinned here (on-the-fly only).
func TestParallelMatchesSerialLEP4(t *testing.T) {
	if testing.Short() {
		t.Skip("LEP n=4 takes a second")
	}
	sys := models.LEP(models.LEPOptions{Nodes: 4})
	f := tctl.MustParse(models.LEPEnv(sys, 4), models.LEPTP2)
	one, err := Solve(sys, f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Solve(sys, f, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSameGraph(t, "LEP4 TP2 workers 1 vs 8", one, eight)
}

// TestParallelDeterministic pins what stays deterministic across worker
// counts: exploration and wiring are sequentialized, so Workers 1, 2 and 8
// produce the same node numbering and successor order. The win sets are
// only semantically equal — with several propagation workers the SCC
// passes solve independent components concurrently, so their zone
// decompositions depend on the schedule (the fixpoint they converge to
// does not).
func TestParallelDeterministic(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	one, err := Solve(sys, f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		res, err := Solve(sys, f, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		checkSameGraph(t, fmt.Sprintf("workers 1 vs %d", w), one, res)
	}
}

// TestParallelStrategySimulation runs strategies synthesized at eight
// workers through the adversarial concrete-semantics simulator.
func TestParallelStrategySimulation(t *testing.T) {
	cases := []struct {
		name string
		env  *tctl.ParseEnv
		src  string
	}{
		{"smartlight", models.SmartLightEnv(models.SmartLight()), models.SmartLightGoal},
		{"traingate", models.TrainGateEnv(models.TrainGate()), "control: A<> Gate.Closed"},
	}
	{
		sys := models.LEP(models.LEPOptions{Nodes: 3})
		cases = append(cases, struct {
			name string
			env  *tctl.ParseEnv
			src  string
		}{"lep3-TP1", models.LEPEnv(sys, 3), models.LEPTP1})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Solve(c.env.Sys, tctl.MustParse(c.env, c.src), Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Winnable || res.Strategy == nil {
				t.Fatalf("%s must be winnable with a strategy", c.src)
			}
			for run := 0; run < 10; run++ {
				sim := newSimulator(t, res.Strategy, int64(1000+run))
				if !sim.run(400) {
					t.Fatalf("run %d: workers=8 strategy lost the game\ntrace: %s", run, sim.trace.String())
				}
			}
		})
	}
}

// TestParallelRandomGames cross-checks the winnability answer at one and
// four workers over a pile of small random games, including early
// termination.
func TestParallelRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	goal := "control: A<> P.C"
	for iter := 0; iter < 60; iter++ {
		s := randomGame(rng)
		f := tctl.MustParse(mkEnv(s), goal)
		one, err1 := Solve(s, f, Options{Workers: 1, MaxNodes: 4000})
		four, err2 := Solve(s, f, Options{Workers: 4, MaxNodes: 4000})
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: err1=%v err2=%v", iter, err1, err2)
		}
		checkSameGraph(t, fmt.Sprintf("iter %d workers 1 vs 4", iter), one, four)
		early, err3 := Solve(s, f, Options{Workers: 4, MaxNodes: 4000, EarlyTermination: true})
		if err3 != nil {
			t.Fatalf("iter %d: early: %v", iter, err3)
		}
		if early.Winnable != one.Winnable {
			t.Fatalf("iter %d: early workers=4 %v, workers=1 %v", iter, early.Winnable, one.Winnable)
		}
	}
}

// TestWorkersDefault asserts that a zero Workers option solves (using all
// cores) and builds the same graph as one worker.
func TestWorkersDefault(t *testing.T) {
	sys := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal)
	def, err := Solve(sys, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Solve(sys, f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSameGraph(t, "default vs workers=1", def, one)
}
