package game

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tigatest/internal/dsl"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
)

// propagationWorkerCounts is the sweep the semantic-equality suite runs:
// one worker against increasing concurrency.
var propagationWorkerCounts = []int{1, 2, 4, 8}

// checkWinSetsAcrossWorkers solves the same game at every worker count and
// every algorithm and asserts the one-worker graph, node for node, with
// semantically equal winning sets — the equality the unique least fixpoint
// guarantees regardless of propagation schedule.
func checkWinSetsAcrossWorkers(t *testing.T, env *tctl.ParseEnv, src string, algs []Algorithm) {
	t.Helper()
	f := tctl.MustParse(env, src)
	for _, alg := range algs {
		var ref *Result
		for _, w := range propagationWorkerCounts {
			res, err := Solve(env.Sys, f, Options{Algorithm: alg, Workers: w})
			if err != nil {
				t.Fatalf("%s %q workers=%d: %v", alg, src, w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			checkSameGraph(t, fmt.Sprintf("%s %q workers 1 vs %d", alg, src, w), ref, res)
		}
	}
}

func TestPropagationSemanticEqualityLEP(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	env := models.LEPEnv(sys, 3)
	for _, tp := range []struct {
		name, src string
	}{
		{"TP1", models.LEPTP1},
		{"TP2", models.LEPTP2},
		{"TP3", models.LEPTP3},
	} {
		t.Run(tp.name, func(t *testing.T) {
			algs := []Algorithm{OnTheFly, Backward}
			checkWinSetsAcrossWorkers(t, env, tp.src, algs)
		})
	}
}

// TestPropagationSemanticEqualityModelfiles runs the worker sweep on both
// shipped DSL models, so the cmd/tiga -file path is covered by the
// equality guarantee too.
func TestPropagationSemanticEqualityModelfiles(t *testing.T) {
	cases := []struct {
		file, src string
	}{
		{"coffeemachine.tga", "control: A<> Machine.Served and strength == 2"},
		{"beeper.tga", "control: A<> Plant.Idle and w >= 2"},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "examples", "modelfiles", c.file))
			if err != nil {
				t.Fatal(err)
			}
			f, err := dsl.Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			checkWinSetsAcrossWorkers(t, f.ParseEnv(), c.src, []Algorithm{OnTheFly, Backward})
		})
	}
}

// TestPropagationWorkersOption pins Options.PropagationWorkers: exploration
// and propagation concurrency can be set independently without changing
// the graph or the computed winning sets.
func TestPropagationWorkersOption(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	ref, err := Solve(sys, f, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pw := range []int{1, 2, 8} {
		res, err := Solve(sys, f, Options{Workers: 4, PropagationWorkers: pw})
		if err != nil {
			t.Fatalf("prop-workers=%d: %v", pw, err)
		}
		checkSameGraph(t, fmt.Sprintf("prop-workers=%d", pw), ref, res)
	}
}

// TestPropagationStatsCounters checks that the engine reports its
// per-phase effort at every worker count: a condensation with at least one
// component, at least one propagation pass, and (for the full-graph
// backward solve) reevals.
func TestPropagationStatsCounters(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	res, err := Solve(sys, f, Options{Algorithm: Backward, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SCCs <= 0 || st.SCCs > st.Nodes {
		t.Fatalf("SCCs=%d implausible for %d nodes", st.SCCs, st.Nodes)
	}
	if st.PropagationRounds < 1 {
		t.Fatalf("backward solve must run at least one propagation pass, got %d", st.PropagationRounds)
	}
	if st.Reevals == 0 || st.Updates == 0 {
		t.Fatalf("propagation counters empty: %+v", st)
	}
	one, err := Solve(sys, f, Options{Algorithm: Backward, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.SCCs <= 0 || one.Stats.PropagationRounds <= 0 {
		t.Fatalf("one worker must run the same SCC propagation: %+v", one.Stats)
	}
}

// TestPhaseDurationsOnTheFly pins the phase attribution of an on-the-fly
// solve: exploration and propagation are both charged, and since they
// alternate without overlapping, together they fit in the solve's wall
// clock.
func TestPhaseDurationsOnTheFly(t *testing.T) {
	sys := models.LEP(models.LEPOptions{Nodes: 3})
	f := tctl.MustParse(models.LEPEnv(sys, 3), models.LEPTP2)
	for _, w := range []int{1, 4} {
		res, err := Solve(sys, f, Options{Algorithm: OnTheFly, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.ExploreDuration <= 0 || st.PropagateDuration <= 0 {
			t.Fatalf("workers=%d: phases unattributed: explore %v, propagate %v", w, st.ExploreDuration, st.PropagateDuration)
		}
		if st.ExploreDuration+st.PropagateDuration > st.Duration {
			t.Fatalf("workers=%d: explore %v + propagate %v exceed the solve's %v",
				w, st.ExploreDuration, st.PropagateDuration, st.Duration)
		}
	}
}
