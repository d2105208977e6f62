// Package texec implements Algorithm 3.1 of the paper: strategy-guided
// conformance test execution. A winning strategy is consulted step by step;
// inputs it prescribes are offered to the implementation under test, waits
// let virtual time pass, and every observed output and delay is checked
// against the specification through the tioco monitor. Reaching the test
// purpose yields pass, a tioco violation yields fail; cooperative
// strategies (and internal errors) may end inconclusive, and so does a run
// that spends its step budget.
//
// Early end: when the IUT implements tiots.Snapshotter, Run ends a run at
// a step whose configuration — strategy node, stamp bound, exact
// strategy valuation, IUT and monitor encodings — equals an earlier one.
// Every step between the two repeats to the budget and none ended the
// run, so the Result is the one stepping to the budget gives ("step
// budget exhausted", Steps = MaxSteps, the full periodic trace), with
// FastForwarded set. Other IUTs are stepped in full.
//
// Key entry points: Run drives one strategy consultant (the interpreted
// game.Strategy or a compiled game.CompiledStrategy) against one tiots.IUT
// under Options (plant processes, tick scale, per-run seed);
// GuessPlantProcs picks the implementation-side processes by
// output-emission convention.
// Run is pure apart from the IUT it drives: strategies and specifications
// are only read, so any number of runs may share them concurrently as
// long as every run gets its own IUT instance.
package texec

import (
	"fmt"
	"slices"
	"sync"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/tioco"
	"tigatest/internal/tiots"
)

// Verdict of a test run.
type Verdict int

const (
	Pass Verdict = iota
	Fail
	Inconclusive
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Fail:
		return "fail"
	default:
		return "inconclusive"
	}
}

// Options configure test execution.
type Options struct {
	// PlantProcs are the indices of the implementation-side processes in
	// the specification model (the IUT of Fig. 4).
	PlantProcs []int
	// Scale is ticks per model time unit (default tiots.Scale).
	Scale int64
	// MaxSteps bounds the number of strategy decisions (default 10000).
	MaxSteps int
	// Cancel, when non-nil, aborts the run cooperatively: Run polls it
	// before every strategy decision and returns an inconclusive
	// "canceled" verdict once the channel closes (an expired request
	// deadline in the service layer, SIGINT in the CLIs).
	Cancel <-chan struct{}
}

// Result of one test run.
type Result struct {
	Verdict Verdict
	Reason  string
	Trace   tiots.Trace
	Steps   int
	// FastForwarded reports that the run ended at a repeated
	// configuration; every other field is what stepping to the budget
	// gives.
	FastForwarded bool
}

func (r Result) String() string {
	return fmt.Sprintf("%s (%s) after %d steps", r.Verdict, r.Reason, r.Steps)
}

// Run executes one strategy-guided test against the implementation,
// following Algorithm 3.1.
func Run(strat game.Consultant, iut tiots.IUT, opts Options) Result {
	sys := strat.System()
	if opts.Scale <= 0 {
		opts.Scale = tiots.Scale
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 10000
	}
	if len(opts.PlantProcs) == 0 {
		opts.PlantProcs = GuessPlantProcs(sys)
	}
	mon, err := tioco.NewMonitor(sys, opts.PlantProcs, opts.Scale)
	if err != nil {
		return Result{Verdict: Inconclusive, Reason: err.Error()}
	}
	iut.Reset()

	scale := opts.Scale
	node := strat.InitialNode()
	val := make([]int64, sys.NumClocks()-1)
	bound := strat.StampAt(node, val, scale)
	var trace tiots.Trace

	fail := func(reason string, steps int) Result {
		return Result{Verdict: Fail, Reason: reason, Trace: trace, Steps: steps}
	}
	inconclusive := func(reason string, steps int) Result {
		return Result{Verdict: Inconclusive, Reason: reason, Trace: trace, Steps: steps}
	}

	// observeOutput handles an output that occurred `after` ticks into a
	// wait; it returns a non-nil verdict pointer to stop the run.
	observeOutput := func(out *tiots.Output, steps int) (*Result, bool) {
		// Time passed before the output.
		if out.After > 0 {
			if err := mon.Delay(out.After); err != nil {
				r := fail(err.Error(), steps)
				return &r, false
			}
			for i := range val {
				val[i] += out.After
			}
			trace = append(trace, tiots.Event{Delay: out.After, Chan: -1})
		}
		if err := mon.Output(out.Chan); err != nil {
			r := fail(err.Error(), steps)
			return &r, false
		}
		trace = append(trace, tiots.Event{Chan: out.Chan, Kind: model.Uncontrollable})
		// Follow the strategy graph.
		trans, target, ferr := strat.FollowTransition(node, out.Chan, val, scale)
		if ferr != nil {
			r := inconclusive("strategy graph does not cover allowed output: "+ferr.Error(), steps)
			return &r, false
		}
		game.ResetClocks(trans, val, scale)
		node = target
		bound = strat.StampAt(node, val, scale)
		return nil, true
	}

	// A snapshotting IUT lets the run end at a repeated
	// configuration (see cycle).
	snap, _ := iut.(tiots.Snapshotter)
	var cyc *cycle
	if snap != nil {
		cyc = cycles.Get().(*cycle)
		*cyc = cycle{key: cyc.key[:0], check: cyc.check[:0], marks: cyc.marks[:0], power: 1}
		defer cycles.Put(cyc)
	}

	for steps := 0; steps < opts.MaxSteps; steps++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				return inconclusive("canceled", steps)
			default:
			}
		}
		if cyc != nil {
			key := append(cyc.key[:0], int64(node), int64(bound))
			key = append(key, val...)
			key = snap.AppendSnapshot(key)
			cyc.key = mon.AppendSnapshot(key)
			if cyc.repeated(steps, len(trace)) {
				return Result{Verdict: Inconclusive, Reason: "step budget exhausted",
					Trace: cyc.unroll(trace, opts.MaxSteps), Steps: opts.MaxSteps, FastForwarded: true}
			}
		}
		if strat.InGoal(node, val, scale) {
			return Result{Verdict: Pass, Reason: "test purpose satisfied", Trace: trace, Steps: steps}
		}
		if bound < 0 {
			if strat.Cooperative() {
				// A conformant plant chose a branch the cooperative
				// strategy merely hoped to avoid: nobody is to blame.
				return inconclusive("cooperative strategy: plant moved outside the hoped-for region", steps)
			}
			return inconclusive("play left the winning region (solver or adapter defect)", steps)
		}
		mv, err := strat.MoveAt(node, val, scale, bound)
		if err != nil {
			return inconclusive(err.Error(), steps)
		}
		switch mv.Kind {
		case game.MoveGoal:
			return Result{Verdict: Pass, Reason: "test purpose satisfied", Trace: trace, Steps: steps}

		case game.MoveAction:
			if mv.Trans.Chan < 0 || sys.Channels[mv.Trans.Chan].Kind != model.Controllable {
				// Environment-internal move: advances the strategy state
				// without interacting with the IUT.
				game.ResetClocks(mv.Trans, val, scale)
				node = mv.Target
				bound = strat.StampAt(node, val, scale)
				continue
			}
			// "input i": send i to I (Algorithm 3.1, line 5).
			if err := iut.Offer(mv.Trans.Chan); err != nil {
				return inconclusive("adapter error: "+err.Error(), steps)
			}
			if err := mon.Input(mv.Trans.Chan); err != nil {
				return inconclusive(err.Error(), steps)
			}
			trace = append(trace, tiots.Event{Chan: mv.Trans.Chan, Kind: model.Controllable})
			game.ResetClocks(mv.Trans, val, scale)
			node = mv.Target
			bound = strat.StampAt(node, val, scale)

		case game.MoveWait:
			// "delay d": wait, watching for outputs (lines 7-15).
			d := mv.WaitTicks
			out := iut.Advance(d)
			if out == nil {
				if err := mon.Delay(d); err != nil {
					return fail(err.Error(), steps)
				}
				for i := range val {
					val[i] += d
				}
				trace = append(trace, tiots.Event{Delay: d, Chan: -1})
				if mv.Hoped != nil {
					// Cooperative hope expired: the plant did not help.
					return inconclusive("cooperative strategy: plant did not produce "+mv.Hoped.Label, steps)
				}
				continue
			}
			if res, ok := observeOutput(out, steps); !ok {
				return *res
			}

		default:
			return inconclusive("strategy has no move", steps)
		}
	}
	return inconclusive("step budget exhausted", opts.MaxSteps)
}

// cycle detects a repeated configuration of a run with Brent's
// algorithm. The configuration at the top of a step — strategy node,
// stamp bound, exact strategy valuation, then the IUT's and the monitor's
// canonical encodings — determines everything the run does from there on.
// So when it equals the configuration at an earlier step, the run repeats
// the steps in between until the budget is spent, and none of them ended
// it: the verdict is "step budget exhausted" and the trace is periodic.
//
// key is the configuration being checked and check the one at the
// checkpoint step ckStep; marks[j] is the trace length at the top of step
// ckStep+j. The checkpoint moves to the current step whenever power steps
// have passed since it, doubling power, so a cycle of period p entered at
// step m is found within O(m+p) steps, without hashing and with two keys
// of memory. Runs draw their cycle from a pool, so steps allocate nothing.
type cycle struct {
	key, check []int64
	marks      []int
	ckStep     int
	power      int
}

var cycles = sync.Pool{New: func() any { return new(cycle) }}

// repeated reports whether key, the configuration at the top of step,
// equals the checkpoint's, and otherwise records the step.
func (c *cycle) repeated(step, traceLen int) bool {
	if step > 0 && slices.Equal(c.key, c.check) {
		return true
	}
	if step == 0 || step-c.ckStep == c.power {
		if step > 0 {
			c.power *= 2
		}
		c.key, c.check, c.ckStep, c.marks = c.check, c.key, step, c.marks[:0]
	}
	c.marks = append(c.marks, traceLen)
	return false
}

// unroll returns the trace of a run whose steps since the checkpoint
// repeat until maxSteps: trace ends with one period (the events of those
// steps), so the result is the prefix before the checkpoint, the period
// n/p times and the events of the first n%p steps of one more, for the
// n steps from the checkpoint to the budget and period p.
func (c *cycle) unroll(trace tiots.Trace, maxSteps int) tiots.Trace {
	n, p, start := maxSteps-c.ckStep, len(c.marks), c.marks[0]
	period := len(trace) - start
	full, rest := n/p, c.marks[n%p]-start
	out := slices.Grow(trace, (full-1)*period+rest)
	for i := 1; i < full; i++ {
		out = append(out, trace[start:]...)
	}
	return append(out, trace[start:start+rest]...)
}

// GuessPlantProcs returns the processes that emit on uncontrollable
// channels or receive on controllable ones — the conventional shape of the
// IUT part of a specification.
func GuessPlantProcs(sys *model.System) []int {
	var out []int
	for pi, p := range sys.Procs {
		isPlant := false
		for _, e := range p.Edges {
			if e.Dir == model.Emit && sys.Channels[e.Chan].Kind == model.Uncontrollable {
				isPlant = true
			}
			if e.Dir == model.Receive && sys.Channels[e.Chan].Kind == model.Controllable {
				isPlant = true
			}
		}
		if isPlant {
			out = append(out, pi)
		}
	}
	return out
}

// CampaignResult aggregates verdicts over repeated runs.
type CampaignResult struct {
	Name    string
	Runs    int
	Pass    int
	Fail    int
	Incon   int
	Reasons map[string]int
}

// Campaign runs the strategy n times against the implementation (useful
// when the adapter or policy is randomized) and aggregates verdicts.
func Campaign(name string, strat game.Consultant, iut tiots.IUT, n int, opts Options) CampaignResult {
	cr := CampaignResult{Name: name, Runs: n, Reasons: map[string]int{}}
	for i := 0; i < n; i++ {
		res := Run(strat, iut, opts)
		switch res.Verdict {
		case Pass:
			cr.Pass++
		case Fail:
			cr.Fail++
		default:
			cr.Incon++
		}
		cr.Reasons[res.Verdict.String()+": "+res.Reason]++
	}
	return cr
}

// Killed reports whether any run failed (mutation-analysis terminology).
func (cr CampaignResult) Killed() bool { return cr.Fail > 0 }
