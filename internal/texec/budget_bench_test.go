package texec_test

import (
	"testing"

	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// BenchmarkBudgetRun measures one smartlight mutant cell that ends on the
// step budget: the first (mutant, suite entry) pair of the edge campaign
// whose run is inconclusive with "step budget exhausted". Such runs are
// periodic, so Run ends them at a repeated configuration; the
// benchmark fails if that shortcut is not taken.
func BenchmarkBudgetRun(b *testing.B) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	suite, err := campaign.Plan(sys, models.SmartLightEnv(sys), &campaign.Options{
		Coverage: campaign.CoverEdges, Plant: plant, Solver: game.Options{Workers: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := texec.Options{PlantProcs: plant}
	var (
		cs     *game.CompiledStrategy
		impl   *model.System
		policy *tiots.DetPolicy
	)
search:
	for _, m := range mutate.All(sys, plant, 0) {
		mimpl := model.ExtractPlant(m.Sys, plant, "Stub")
		for _, e := range suite.Entries {
			ecs, err := e.Strategy.Compile()
			if err != nil {
				b.Fatal(err)
			}
			if r := texec.Run(ecs, tiots.NewDetIUT(mimpl, tiots.Scale, m.Policy), opts); r.Reason == "step budget exhausted" {
				cs, impl, policy = ecs, mimpl, m.Policy
				break search
			}
		}
	}
	if cs == nil {
		b.Fatal("no smartlight mutant cell ends on the step budget")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := texec.Run(cs, tiots.NewDetIUT(impl, tiots.Scale, policy), opts); !r.FastForwarded {
			b.Fatalf("budget run not fast-forwarded: %s", r)
		}
	}
}
