package campaign

import (
	"bytes"
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/models"
)

// TestCampaignCompiledReportByteIdentical is the E8 acceptance check:
// campaigns executed through the compiled decision tables must produce
// reports byte-identical to the interpreted baseline — same coverage,
// verdict matrix, mutation scores and lazy-recovered rows — on both
// shipped models, with mutant execution and repeats in play so the
// equivalence covers fail/inconclusive cells, not just passing runs.
func TestCampaignCompiledReportByteIdentical(t *testing.T) {
	for _, name := range []string{"smartlight", "traingate"} {
		sys, env, plant, _, err := models.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func(disable bool) []byte {
			opts := Options{
				Coverage: CoverEdges,
				Plant:    plant,
				Mutants:  2,
				Repeats:  2,
				Workers:  4,
				Seed:     1,
				Solver:   game.Options{Workers: 1},

				DisableCompile: disable,
			}
			rep, err := Run(sys, env, opts)
			if err != nil {
				t.Fatalf("%s compiled=%v: %v", name, !disable, err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		compiled := run(false)
		interpreted := run(true)
		if !bytes.Equal(compiled, interpreted) {
			t.Fatalf("%s: compiled report differs from the interpreted baseline:\n--- compiled ---\n%s\n--- interpreted ---\n%s",
				name, compiled, interpreted)
		}
	}
}

// TestCampaignCellsRunTheConsultantTheyClaim checks the path, not the
// result: compiled and interpreted execution give byte-identical reports,
// so only the per-kind cell counters show which consultant each cell ran.
// Smartlight's edge campaign has lazily recovered entries, whose cells
// must run compiled like every other entry's.
func TestCampaignCellsRunTheConsultantTheyClaim(t *testing.T) {
	sys, env, plant, _, err := models.ByName("smartlight", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		rep, err := Run(sys, env, Options{
			Coverage:       CoverEdges,
			Plant:          plant,
			Mutants:        2,
			Workers:        2,
			Seed:           1,
			Solver:         game.Options{Workers: 1},
			DisableCompile: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Recovered == 0 {
			t.Fatal("smartlight edge coverage must recover goals lazily (the lazy entries are the point)")
		}
		cells := 0
		for _, row := range rep.Matrix {
			cells += len(row.Cells)
		}
		ps := rep.Volatile.Planning
		compiled, interpreted := ps.CompiledCells, ps.InterpretedCells
		if disable {
			compiled, interpreted = interpreted, compiled
		}
		if compiled != cells || interpreted != 0 {
			t.Errorf("DisableCompile=%v: %d compiled and %d interpreted cells of %d; every cell must run %s",
				disable, ps.CompiledCells, ps.InterpretedCells, cells, map[bool]string{false: "compiled", true: "interpreted"}[disable])
		}
	}
}
