package tioco

import (
	"testing"

	"tigatest/internal/tiots"
)

// TestMonitorStepAllocations pins the monitor's steady state on
// smartlight: once a hypothesis has been recycled, Delay, Input and Output
// allocate nothing — no per-step trace strings, no state keys, no clones —
// and neither does encoding the hypotheses into a reused key.
func TestMonitorStepAllocations(t *testing.T) {
	m, ch := lightMonitor(t)
	const sc = tiots.Scale
	var key []int64
	cycle := func() {
		key = m.AppendSnapshot(key[:0])
		err := firstErr(
			m.Input(ch["touch"]), // Off → L1
			m.Delay(sc/2),
			m.Output(ch["dim"]), // L1 → Dim
			m.Delay(5*sc),
			m.Input(ch["touch"]), // Dim → L4
			m.Delay(sc),
			m.Output(ch["off"]), // L4 → Off
			m.Delay(sc),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("%v allocations per Off → Dim → Off cycle, want 0", got)
	}
}
