package tiots

import (
	"testing"

	"tigatest/internal/model"
	"tigatest/internal/models"
)

// TestDetIUTStepAllocations pins the steady-state allocations of the
// implementation simulator on smartlight: a full Off → Dim → Off cycle of
// two inputs, two outputs and two quiet waits allocates only the two
// *Output values Advance returns. Enumerating enabled transitions, keying
// output windows, picking the next output and encoding the configuration
// into a reused key must not allocate.
func TestDetIUTStepAllocations(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	ch := map[string]int{}
	for _, c := range spec.Channels {
		ch[c.Name] = c.Index
	}
	for _, policy := range []*DetPolicy{nil, LazyPolicy()} {
		iut := NewDetIUT(impl, Scale, policy)
		var key []int64
		cycle := func() {
			iut.Offer(ch["touch"]) // Off → L1 (x < 20)
			if out := iut.Advance(3 * Scale); out == nil || out.Chan != ch["dim"] {
				t.Fatalf("policy %+v: expected dim!, got %+v", policy, out)
			}
			iut.Advance(5 * Scale) // quiet in Dim until x ≥ 4
			iut.Offer(ch["touch"]) // Dim → L4
			if out := iut.Advance(3 * Scale); out == nil || out.Chan != ch["off"] {
				t.Fatalf("policy %+v: expected off!, got %+v", policy, out)
			}
			iut.Advance(Scale) // quiet in Off
			key = iut.AppendSnapshot(key[:0])
		}
		if got := testing.AllocsPerRun(200, cycle); got > 2 {
			t.Errorf("policy %+v: %v allocations per cycle, want at most 2 (the returned outputs)", policy, got)
		}
	}
}
