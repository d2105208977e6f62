package campaign

import (
	"reflect"
	"strings"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// stepOnly hides every interface of the wrapped implementation but
// tiots.IUT, so texec.Run cannot snapshot it and steps every run to its
// end.
type stepOnly struct{ tiots.IUT }

// TestFastForwardMatchesFullStepping is the differential check of
// texec.Run's cycle detection: every (entry × row) cell of the
// smartlight, traingate and LEP n=3 edge campaigns — lazy row and
// exhaustive mutants included — gives the same Result, trace included,
// whether the run may end at a repeated configuration or must
// step to the end. A budget too small to see a repeat must leave the
// run untouched as well.
func TestFastForwardMatchesFullStepping(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"smartlight", 0}, {"traingate", 0}, {"lep", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, env, plant, _, err := models.ByName(tc.name, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			opts := (&Options{Coverage: CoverEdges, Plant: plant, Seed: 1, Solver: game.Options{Workers: 1}}).withDefaults(sys)
			suite, err := Plan(sys, env, &opts)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := BuildIUTs(sys, &opts, suite.HasLazy())
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "smartlight" && !suite.HasLazy() {
				t.Fatal("smartlight edge coverage must plan lazy entries (the lazy row is part of the check)")
			}
			forwarded := 0
			for _, maxSteps := range []int{0, 7} {
				exec := opts.Exec
				exec.MaxSteps = maxSteps
				for ri, row := range rows {
					for ei, entry := range suite.Entries {
						fast := texec.Run(entry.consult, newIUT(t, row), exec)
						full := texec.Run(entry.consult, stepOnly{newIUT(t, row)}, exec)
						if full.FastForwarded {
							t.Fatalf("row %d entry %d: a wrapped IUT must be stepped in full", ri, ei)
						}
						if fast.FastForwarded {
							forwarded++
						}
						fast.FastForwarded = false
						if !reflect.DeepEqual(fast, full) {
							t.Errorf("MaxSteps %d, row %q, entry %d:\nfast-forwarded %v\nfull           %v",
								maxSteps, row.Name, ei, fast, full)
						}
					}
				}
			}
			if tc.name == "smartlight" && forwarded == 0 {
				t.Error("no smartlight run was fast-forwarded; the differential compared the full loop with itself")
			}
		})
	}
}

func newIUT(t *testing.T, row *IUTRow) tiots.IUT {
	t.Helper()
	iut, closer, err := row.Factory(0)
	if err != nil {
		t.Fatal(err)
	}
	if closer != nil {
		t.Cleanup(closer)
	}
	return iut
}

// TestFastForwardedRunsCounted pins the claimed path to the path that
// runs: on the smartlight edge campaign every matrix run that ends on the
// step budget must have been fast-forwarded (76 today), so a silent
// fallback to full stepping fails here rather than only costing time.
func TestFastForwardedRunsCounted(t *testing.T) {
	sys := models.SmartLight()
	rep, err := Run(sys, models.SmartLightEnv(sys), smartLightOptions())
	if err != nil {
		t.Fatal(err)
	}
	budget := 0
	for _, row := range rep.Matrix {
		for _, c := range row.Cells {
			for _, rc := range c.Reasons {
				if strings.HasSuffix(rc.Reason, ": step budget exhausted") {
					budget += rc.Count
				}
			}
		}
	}
	if budget == 0 {
		t.Fatal("no smartlight matrix run ended on the step budget; the check has nothing to count")
	}
	if got := rep.Volatile.Planning.FastForwardedRuns; got != budget {
		t.Errorf("%d runs fast-forwarded, want all %d that end on the step budget", got, budget)
	}
}
