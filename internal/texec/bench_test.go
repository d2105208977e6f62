package texec

import (
	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
	"tigatest/internal/tiots"
)

// BenchmarkExecCell measures one campaign cell's worth of execution: the
// smartlight strategy, consulted through its compiled decision tables, run
// against a fresh conformant implementation — consultation, the simulated
// IUT and the tioco monitor together.
func BenchmarkExecCell(b *testing.B) {
	sys := models.SmartLight()
	plant := models.SmartLightPlant(sys)
	res, err := game.Solve(sys, tctl.MustParse(models.SmartLightEnv(sys), models.SmartLightGoal), game.Options{})
	if err != nil || !res.Winnable {
		b.Fatalf("smartlight must be winnable: %v", err)
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		b.Fatal(err)
	}
	impl := model.ExtractPlant(sys, plant, "Stub")
	opts := Options{PlantProcs: plant}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := Run(cs, tiots.NewDetIUT(impl, tiots.Scale, nil), opts); r.Verdict != Pass {
			b.Fatalf("conformant run: %s", r)
		}
	}
}
