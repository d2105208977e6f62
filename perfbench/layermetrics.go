package main

import (
	"fmt"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
)

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. Every workload emits all of them; a layer the
// workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"campaign.plan_s", "s"},
	{"campaign.exec_s", "s"},
	{"campaign.analyze_s", "s"},
	{"campaign.cells", "count"},
	{"campaign.cell_ms_p50", "ms"},
	{"campaign.cell_ms_p99", "ms"},
	{"texec.runs", "count"},
	{"texec.steps", "count"},
	{"texec.run_us_p50", "us"},
	{"tiots.calls", "count"},
	{"tiots.busy_s", "s"},
	{"tioco.events", "count"},
	{"tioco.busy_s", "s"},
	{"tioco.peak_states", "count"},
	{"game.consult_calls", "count"},
	{"game.consult_s", "s"},
	{"game.solves", "count"},
	{"game.solve_s", "s"},
	{"game.explore_s", "s"},
	{"game.condense_s", "s"},
	{"game.propagate_s", "s"},
	{"game.overlay_s", "s"},
	{"game.nodes", "count"},
	{"game.transitions", "count"},
	{"game.updates", "count"},
	{"game.skeleton_core_hit_ratio", "ratio"},
	{"game.compile_s", "s"},
	{"symbolic.succ_calls", "count"},
	{"symbolic.succ_us_mean", "us"},
	{"symbolic.states", "count"},
	{"dbm.ops", "count"},
	{"dbm.op_ns_mean", "ns"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.solves", "count"},
	{"service.solve_s", "s"},
	{"service.server_p50_ms", "ms"},
	{"service.server_p99_ms", "ms"},
	{"service.wire_ms_p50", "ms"},
	{"adapter.frames", "count"},
	{"adapter.iut_busy_s", "s"},
	{"share.campaign", "ratio"},
	{"share.game", "ratio"},
	{"share.texec", "ratio"},
	{"share.tiots", "ratio"},
	{"share.tioco", "ratio"},
	{"share.service", "ratio"},
	{"share.adapter", "ratio"},
	{"share.execution", "ratio"},
	{"trace.overhead", "ratio"},
}

// layerMetrics collects a traced run's per-layer numbers.
type layerMetrics struct {
	values map[string]float64
}

func newLayerMetrics() *layerMetrics { return &layerMetrics{values: map[string]float64{}} }

func (lm *layerMetrics) set(name string, v float64) { lm.values[name] = v }

func (lm *layerMetrics) add(name string, v float64) { lm.values[name] += v }

func (lm *layerMetrics) setShares(shares map[string]float64) {
	for layer, v := range shares {
		lm.set("share."+layer, v)
	}
}

// foldSolve adds one solve's game.Stats.
func (lm *layerMetrics) foldSolve(st game.Stats) {
	lm.add("game.solves", 1)
	lm.add("game.solve_s", st.Duration.Seconds())
	lm.add("game.explore_s", st.ExploreDuration.Seconds())
	lm.add("game.condense_s", st.CondenseDuration.Seconds())
	lm.add("game.propagate_s", st.PropagateDuration.Seconds())
	lm.add("game.overlay_s", st.OverlayDuration.Seconds())
	lm.add("game.nodes", float64(st.Nodes))
	lm.add("game.transitions", float64(st.Transitions))
	lm.add("game.updates", float64(st.Updates))
}

// replayModel runs the symbolic and dbm replays over the model's zone
// graph. Their input is the model alone, so they measure the same work on
// every run of a workload.
func (lm *layerMetrics) replayModel(sys *model.System, out *outcome) error {
	sr, err := replaySymbolic(sys)
	if err != nil {
		return fmt.Errorf("symbolic replay: %w", err)
	}
	lm.set("symbolic.succ_calls", float64(sr.succCalls))
	lm.set("symbolic.states", float64(sr.states))
	if sr.succCalls > 0 {
		lm.set("symbolic.succ_us_mean", float64(sr.busy)/float64(time.Microsecond)/float64(sr.succCalls))
	}
	dr, err := replayDBM(sr.zones)
	out.attempted++
	if err != nil {
		out.fail("%v", err)
		return nil
	}
	lm.set("dbm.ops", float64(dr.ops))
	if dr.ops > 0 {
		lm.set("dbm.op_ns_mean", float64(dr.busy)/float64(dr.ops))
	}
	return nil
}

// emit adds every per-layer metric to the outcome, gated (the traced
// run's JSON carries exactly the per_layer list).
func (lm *layerMetrics) emit(out *outcome) {
	for _, m := range perLayer {
		out.add(m.name, m.unit, lm.values[m.name], true)
	}
}
