package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"tigatest/internal/campaign"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/mutate"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// cellWorkers sizes campaign execution for a two-core machine; the solver
// keeps its default worker count.
const cellWorkers = 2

// A single set-up takes well under a millisecond, where timer and
// collector noise would decide the reading. So one setup_s sample is the
// CPU time per set-up over back-to-back set-ups filling at least
// setupBurst, after an untimed collection; a run takes setupSamples of
// them before its first campaign and again after each campaign, and
// setup_s is their median.
// Spreading the samples over the whole run keeps one momentary slow patch
// of the machine from deciding it.
const (
	setupBurst   = 40 * time.Millisecond
	setupSamples = 3
)

// campaignSpec is one campaign workload: a built-in model campaigned with
// edge coverage.
type campaignSpec struct {
	model   string
	lepN    int
	mutants int // campaign.Options.Mutants: 0 = exhaustive
	// rows is the expected matrix height: the conformant row, the lazy row
	// when the suite has lazily recovered entries, and one row per mutant.
	rows int
	// digest is the SHA-256 of the canonical report (WriteJSON without the
	// volatile section) with its seed field zeroed. With exhaustive mutants
	// and deterministic implementations the seed only derives per-cell
	// seeds the implementations ignore, so every other byte is the same
	// for every seed; the seed field itself is checked separately.
	digest string
}

// campaign-exec: 46 exhaustive smartlight mutants plus the conformant and
// lazy rows; the two lazily recovered suite entries keep the interpreted
// consultation path in the measured run.
var campaignExec = campaignSpec{
	model: "smartlight", rows: 48,
	digest: "bc4c2767f950f637b0306d7d8f2532d69d30c01718ff7010fc4dac00c08f6312",
}

// campaign-solve: LEP n=4 (18 exhaustive mutants plus the conformant row),
// where planning and incremental mutant analysis are nearly all of the
// time and execution is under one percent.
var campaignSolve = campaignSpec{
	model: "lep", lepN: 4, rows: 19,
	digest: "70f5560e35d848b5601783868db751e26435863b620556007171eea8105277cf",
}

// canonicalDigest returns the digest of the report's canonical form with
// its seed field zeroed.
func canonicalDigest(rep *campaign.Report) (string, error) {
	zeroed := *rep
	zeroed.Seed = 0
	var buf bytes.Buffer
	if err := zeroed.WriteJSON(&buf, false); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// check verifies one campaign report against the recorded expectations.
func (w *campaignSpec) check(rep *campaign.Report, seed int64) error {
	if rep.Seed != seed {
		return fmt.Errorf("report seed %d, want %d", rep.Seed, seed)
	}
	if len(rep.Matrix) != w.rows && w.rows > 0 {
		return fmt.Errorf("matrix has %d rows, want %d", len(rep.Matrix), w.rows)
	}
	if rep.Summary.Covered != rep.Summary.Coverable {
		return fmt.Errorf("covered %d of %d coverable goals", rep.Summary.Covered, rep.Summary.Coverable)
	}
	digest, err := canonicalDigest(rep)
	if err != nil {
		return err
	}
	if digest != w.digest {
		return fmt.Errorf("canonical report digest %s (seed zeroed), want %s", digest, w.digest)
	}
	return nil
}

// testRuns counts the matrix's executed test runs.
func testRuns(rep *campaign.Report) int {
	n := 0
	for _, row := range rep.Matrix {
		for _, c := range row.Cells {
			n += c.Pass + c.Fail + c.Incon
		}
	}
	return n
}

func solvesOf(rep *campaign.Report) int {
	n := 0
	if v := rep.Volatile; v != nil {
		if v.Planning != nil {
			n += v.Planning.Solves
		}
		if v.Analysis != nil {
			n += v.Analysis.Solves
		}
	}
	return n
}

// campaignInputs is what set-up produces: the model, its parse
// environment and plant, and the mutant count the campaign will run.
type campaignInputs struct {
	sys     *model.System
	env     *tctl.ParseEnv
	plant   []int
	mutants int
}

// setUp builds the model and generates its mutants — everything a
// campaign needs before the first timed call.
func (w *campaignSpec) setUp() (*campaignInputs, error) {
	sys, env, plant, _, err := models.ByName(w.model, w.lepN)
	if err != nil {
		return nil, err
	}
	in := &campaignInputs{sys: sys, env: env, plant: plant}
	if w.mutants == 0 {
		in.mutants = len(mutate.All(sys, plant, 0))
	}
	return in, nil
}

func (w *campaignSpec) options(in *campaignInputs, seed int64) campaign.Options {
	return campaign.Options{
		Coverage: campaign.CoverEdges,
		Plant:    in.plant,
		Mutants:  w.mutants,
		Workers:  cellWorkers,
		Seed:     seed,
	}
}

func runCampaign(w *campaignSpec, cfg *config) (*outcome, error) {
	out := &outcome{}
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	// prev is the latest yardstick reading; every sample is converted to
	// reference CPU seconds with the readings on either side of it.
	prev, err := yard.read()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var in *campaignInputs
	setUp := func() error {
		var bursts []time.Duration
		for i := 0; i < setupSamples; i++ {
			runtime.GC()
			n := 0
			t0, c0 := time.Now(), cpuTime()
			for n == 0 || time.Since(t0) < setupBurst {
				var err error
				if in, err = w.setUp(); err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				n++
			}
			bursts = append(bursts, (cpuTime()-c0)/time.Duration(n))
		}
		next, err := yard.read()
		if err != nil {
			return err
		}
		for _, b := range bursts {
			setups = append(setups, refCPU(b, prev, next))
		}
		prev = next
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "inputs: model %s, %d mutants, %d cell workers\n", in.sys.Name, in.mutants, cellWorkers)

	// Untraced measurement: whole campaigns, back to back, until the window
	// closes (at least one).
	var walls, cpus, rss, solves []float64
	var runsPerS, solvesPerS, runsPerCPU, solvesPerCPU []float64
	deadline := time.Now().Add(cfg.seconds)
	for out.attempted == 0 || time.Now().Before(deadline) {
		// Each campaign's own memory peak, from the same start: free memory
		// is handed back to the kernel first, so the resident set the
		// high-water mark is reset to holds only what is live. Where the
		// kernel cannot reset the mark, every sample is the process's peak
		// so far.
		debug.FreeOSMemory()
		_ = resetPeakRSS(0)
		c0 := cpuTime()
		t0 := time.Now()
		rep, err := campaign.Run(in.sys, in.env, w.options(in, cfg.seed))
		d := time.Since(t0).Seconds()
		c := cpuTime() - c0
		peak, perr := peakRSSMB(0)
		if perr != nil {
			return nil, perr
		}
		rss = append(rss, peak)
		after, yerr := yard.read()
		if yerr != nil {
			return nil, yerr
		}
		ref := refCPU(c, prev, after)
		prev = after
		out.attempted++
		if err != nil {
			out.fail("campaign %d: %v", out.attempted, err)
		} else {
			if err := w.check(rep, cfg.seed); err != nil {
				out.fail("campaign %d: %v", out.attempted, err)
			}
			runs, n := float64(testRuns(rep)), float64(solvesOf(rep))
			walls, cpus, solves = append(walls, d), append(cpus, c.Seconds()), append(solves, n)
			runsPerS, solvesPerS = append(runsPerS, runs/d), append(solvesPerS, n/d)
			runsPerCPU, solvesPerCPU = append(runsPerCPU, runs/ref), append(solvesPerCPU, n/ref)
		}
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	e2e := !cfg.trace
	fmt.Fprintf(cfg.log, "yardstick: %s\n", yard.speedNote())
	out.addNote("setup_s", "s", median(setups), e2e, "reference CPU time per set-up: "+summarize(setups).String())
	out.addNote("test_runs_per_cpu_s", "1/ref_cpu_s", median(runsPerCPU), e2e, summarize(runsPerCPU).String())
	// The solve count is not pinned by the canonical digest, so it is
	// printed with the rate: solves_per_cpu_s tracks the campaign's CPU
	// time only while the count stays the same.
	out.addNote("solves_per_cpu_s", "1/ref_cpu_s", median(solvesPerCPU), e2e,
		fmt.Sprintf("solves per campaign %s; %s", countRange(solves), summarize(solvesPerCPU)))
	out.addNote("peak_rss_mb", "MB", median(rss), e2e, "per campaign: "+summarize(rss).String())
	out.addNote("campaign_s", "s", median(walls), false, summarize(walls).String())
	out.addNote("campaign_cpu_s", "s", median(cpus), false, summarize(cpus).String())
	out.addNote("test_runs_per_s", "1/s", median(runsPerS), false, summarize(runsPerS).String())
	out.addNote("solves_per_s", "1/s", median(solvesPerS), false, summarize(solvesPerS).String())
	if cfg.trace {
		if err := traceCampaign(w, in, cfg, median(walls), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceCampaign is the traced run: one campaign.Run with its SolveVia and
// ObserveCell hooks recording spans (pass A, the real path), then a
// sequential re-execution of every matrix cell through wrapped
// implementations and consultants with a tioco replay of each run's trace
// (pass B), then the symbolic and dbm replays of the model's zone graph.
func traceCampaign(w *campaignSpec, in *campaignInputs, cfg *config, untracedWall float64, out *outcome) error {
	tr := newTracer()
	lm := newLayerMetrics()

	// Pass A.
	opts := w.options(in, cfg.seed)
	root := tr.begin("campaign.Run", 0)
	var mu sync.Mutex
	results := map[campaign.SolveKey]*game.Result{}
	var solveTotal, planSolves time.Duration
	var cellMS []float64
	opts.SolveVia = func(key campaign.SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
		t0 := time.Now()
		res, err := solve()
		t1 := time.Now()
		id := tr.record("game.solve", root.id, t0, t1)
		if err != nil {
			return res, err
		}
		recordPhases(tr, id, t0, t1, res.Stats)
		lm.foldSolve(res.Stats)
		solveTotal += t1.Sub(t0)
		if key.EditHash == 0 {
			planSolves += t1.Sub(t0)
			results[key] = res
		}
		return res, nil
	}
	opts.ObserveCell = func(d time.Duration) {
		end := time.Now()
		tr.record("campaign.cell", root.id, end.Add(-d), end)
		mu.Lock()
		cellMS = append(cellMS, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	}
	rep, err := campaign.Run(in.sys, in.env, opts)
	tracedWall := time.Since(root.start)
	root.end()
	out.attempted++
	if err != nil {
		out.fail("traced campaign: %v", err)
		return nil
	}
	if err := w.check(rep, cfg.seed); err != nil {
		out.fail("traced campaign: %v", err)
	}
	// The run's own time is what no solve or cell span covers: planning
	// and analysis bookkeeping, conformant planning runs, compilation,
	// building the rows.
	rootSelf := time.Duration(selfTimes(tr.snapshot())[root.id])
	vol := rep.Volatile
	var compile time.Duration
	for _, res := range results {
		if !res.Winnable || res.Strategy == nil {
			continue
		}
		if cs, err := res.CompiledStrategy(); err == nil {
			compile += cs.CompileDuration()
		}
	}

	// Pass B: re-plan with every solve served from pass A, then run each
	// (row × entry) cell once, sequentially, with wrapped layers.
	exec, err := replayCells(w, in, cfg, tr, results, rep, out)
	if err != nil {
		return err
	}
	if err := lm.replayModel(in.sys, out); err != nil {
		return err
	}

	cells := summarize(cellMS)
	lm.set("campaign.plan_s", msToS(vol.PlanMS))
	lm.set("campaign.exec_s", msToS(vol.ExecMS))
	lm.set("campaign.analyze_s", msToS(vol.AnalyzeMS))
	lm.set("campaign.cells", float64(len(cellMS)))
	lm.set("campaign.cell_ms_p50", cells.Median)
	lm.set("campaign.cell_ms_p99", quantile(cellMS, 0.99))
	lm.set("game.compile_s", compile.Seconds())
	if p := vol.Planning; p != nil && p.SkeletonCoreHits+p.SkeletonCoreMisses > 0 {
		lm.set("game.skeleton_core_hit_ratio", float64(p.SkeletonCoreHits)/float64(p.SkeletonCoreHits+p.SkeletonCoreMisses))
	}
	exec.into(lm)

	// Shares of the traced campaign's wall time, which splits into the
	// run's self time, the solves (sequential) and the stretch the cells
	// cover. No layer boundary is reachable inside campaign.Execute, so
	// that stretch is split in the proportions pass B measured.
	wall := tracedWall.Seconds()
	cellCover := max(tracedWall-rootSelf-solveTotal, 0).Seconds()
	f := exec.fractions()
	shares := map[string]float64{
		"campaign": rootSelf.Seconds() / wall,
		"game":     (solveTotal.Seconds() + f["consult"]*cellCover) / wall,
		"texec":    f["texec"] * cellCover / wall,
		"tiots":    f["tiots"] * cellCover / wall,
		"tioco":    f["tioco"] * cellCover / wall,
	}
	shares["execution"] = (f["consult"] + f["texec"] + f["tiots"] + f["tioco"]) * cellCover / wall
	lm.setShares(shares)
	lm.set("trace.overhead", wall/untracedWall-1)
	fmt.Fprintf(cfg.log, "traced campaign %.3fs vs untraced median %.3fs: solves %.3fs (planning %.3fs), cells cover %.3fs, the run itself %.3fs\n",
		wall, untracedWall, solveTotal.Seconds(), planSolves.Seconds(), cellCover, rootSelf.Seconds())
	lm.emit(out)
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "spans: %d written to %s\n", len(tr.snapshot()), cfg.spans)
	}
	return nil
}

// countRange prints a per-campaign count as one number, or min–max when it
// varied.
func countRange(v []float64) string {
	if len(v) == 0 {
		return "none"
	}
	lo, hi := slices.Min(v), slices.Max(v)
	if lo == hi {
		return fmtValue(lo)
	}
	return fmtValue(lo) + "–" + fmtValue(hi)
}

func msToS(ms int64) float64 { return float64(ms) / 1000 }

// recordPhases adds the solve's phase timings as child spans laid end to
// end from its start (condensation inside propagation), clipped to the
// solve. The phases are attributed subsets of the solve, so what they do
// not cover stays the solve's self time.
func recordPhases(tr *tracer, parent int64, t0, t1 time.Time, st game.Stats) {
	cur := t0
	lay := func(name string, d time.Duration, parent int64) (time.Time, int64) {
		start := cur
		end := start.Add(d)
		if end.After(t1) {
			end = t1
		}
		if !end.After(start) {
			return start, 0
		}
		id := tr.record(name, parent, start, end)
		cur = end
		return start, id
	}
	lay("game.explore", st.ExploreDuration, parent)
	lay("game.overlay", st.OverlayDuration, parent)
	start, pid := lay("game.propagate", st.PropagateDuration, parent)
	if pid != 0 && st.CondenseDuration > 0 {
		end := start.Add(min(st.CondenseDuration, cur.Sub(start)))
		tr.record("game.condense", pid, start, end)
	}
}

// execReplay accumulates pass B.
type execReplay struct {
	runs      int
	steps     int
	runUS     []float64
	tiotsN    int
	tiotsBusy time.Duration
	consultN  int
	consultT  time.Duration
	runSelf   time.Duration // texec.run self time (consultation and IUT calls excluded)
	mon       monitorReplay
}

// selfCosts splits execution cost across its layers, in seconds: the
// live monitor runs inside texec.Run, so its replayed cost is taken out of
// texec's self time.
func (e *execReplay) selfCosts() map[string]float64 {
	tioco := min(e.mon.busy, e.runSelf)
	return map[string]float64{
		"texec":   (e.runSelf - tioco).Seconds(),
		"tioco":   tioco.Seconds(),
		"tiots":   e.tiotsBusy.Seconds(),
		"consult": e.consultT.Seconds(),
	}
}

// fractions is selfCosts as shares of the execution cost.
func (e *execReplay) fractions() map[string]float64 {
	costs := e.selfCosts()
	total := 0.0
	for _, c := range costs {
		total += c
	}
	if total == 0 {
		return map[string]float64{}
	}
	for k := range costs {
		costs[k] /= total
	}
	return costs
}

func (e *execReplay) into(lm *layerMetrics) {
	lm.set("texec.runs", float64(e.runs))
	lm.set("texec.steps", float64(e.steps))
	lm.set("texec.run_us_p50", median(e.runUS))
	lm.set("tiots.calls", float64(e.tiotsN))
	lm.set("tiots.busy_s", e.tiotsBusy.Seconds())
	lm.set("game.consult_calls", float64(e.consultN))
	lm.set("game.consult_s", e.consultT.Seconds())
	lm.set("tioco.events", float64(e.mon.events))
	lm.set("tioco.busy_s", e.mon.busy.Seconds())
	lm.set("tioco.peak_states", float64(e.mon.peak))
}

// spanSampleRuns is how many runs per traced pass keep per-call spans.
const spanSampleRuns = 20

// runTraced runs one test through wrapped layers: a texec.run span around
// texec.Run, with the consultant and implementation timed as game.consult
// and tiots (per-call child spans for the first spanSampleRuns runs).
func (e *execReplay) runTraced(tr *tracer, parent int64, consult game.Consultant, factory campaign.IUTFactory, opts texec.Options) (texec.Result, error) {
	iut, closer, err := factory(0)
	if err != nil {
		return texec.Result{}, err
	}
	if closer != nil {
		defer closer()
	}
	run := tr.begin("texec.run", parent)
	sample := e.runs < spanSampleRuns
	c := &tracedConsultant{callTimer: callTimer{tr: tr, layer: "game", parent: run.id, sample: sample}, inner: consult}
	w := &tracedIUT{callTimer: callTimer{tr: tr, layer: "tiots", parent: run.id, sample: sample}, inner: iut}
	res := texec.Run(c, w, opts)
	d := time.Since(run.start)
	run.end()
	e.runs++
	e.steps += res.Steps
	e.runUS = append(e.runUS, float64(d)/float64(time.Microsecond))
	e.runSelf += d - c.busy - w.busy
	e.consultN += c.calls
	e.consultT += c.busy
	e.tiotsN += w.calls
	e.tiotsBusy += w.busy
	return res, nil
}

// replayCells is pass B. Plan runs again with every solve served from
// pass A's results (SolveVia may serve from a cache), so it re-solves
// nothing; each cell then runs once through texec.Run with the same
// consultant campaign.Execute uses — the compiled tables for entries
// planned eagerly, the interpreted strategy for lazily recovered ones —
// and its verdict must match pass A's matrix.
func replayCells(w *campaignSpec, in *campaignInputs, cfg *config, tr *tracer,
	results map[campaign.SolveKey]*game.Result, rep *campaign.Report, out *outcome) (*execReplay, error) {
	opts := w.options(in, cfg.seed)
	opts.Workers = 1
	opts.Exec = texec.Options{PlantProcs: in.plant}
	opts.SolveVia = func(key campaign.SolveKey, solve func() (*game.Result, error)) (*game.Result, error) {
		if res, ok := results[key]; ok {
			return res, nil
		}
		return solve()
	}
	root := tr.begin("campaign.replay", 0)
	defer root.end()
	plan := tr.begin("campaign.Plan", root.id)
	suite, err := campaign.Plan(in.sys, in.env, &opts)
	plan.end()
	if err != nil {
		return nil, fmt.Errorf("replay plan: %w", err)
	}
	build := tr.begin("campaign.BuildIUTs", root.id)
	rows, err := campaign.BuildIUTs(in.sys, &opts, suite.HasLazy())
	build.end()
	if err != nil {
		return nil, fmt.Errorf("replay rows: %w", err)
	}
	if len(rows) != len(rep.Matrix) {
		out.fail("replay: %d rows, traced campaign had %d", len(rows), len(rep.Matrix))
		return &execReplay{}, nil
	}
	byStrategy := map[*game.Strategy]*game.Result{}
	for _, res := range results {
		if res.Strategy != nil {
			byStrategy[res.Strategy] = res
		}
	}

	e := &execReplay{}
	for ri, row := range rows {
		for ei, entry := range suite.Entries {
			var consult game.Consultant = entry.Strategy
			if res, ok := byStrategy[entry.Strategy]; ok && !entry.Lazy {
				if cs, err := res.CompiledStrategy(); err == nil {
					consult = cs
				}
			}
			cell := tr.begin("campaign.cell", root.id)
			res, err := e.runTraced(tr, cell.id, consult, row.Factory, opts.Exec)
			if err == nil {
				mon := tr.begin("tioco.replay", cell.id)
				err = e.mon.replay(in.sys, in.plant, tiots.Scale, res.Trace)
				mon.end()
			}
			cell.end()
			if err != nil {
				out.fail("replay cell %s × entry %d: %v", row.Name, ei, err)
				continue
			}
			if want := rep.Matrix[ri].Cells[ei]; !sameVerdict(res.Verdict, want) {
				out.fail("replay cell %s × entry %d: %s, traced campaign tallied %+v", row.Name, ei, res.Verdict, want)
			}
		}
	}
	return e, nil
}

// sameVerdict compares one run's verdict with a one-repeat matrix cell.
func sameVerdict(v texec.Verdict, c campaign.CellReport) bool {
	switch v {
	case texec.Pass:
		return c.Pass == 1 && c.Fail == 0 && c.Incon == 0
	case texec.Fail:
		return c.Fail == 1 && c.Pass == 0 && c.Incon == 0
	default:
		return c.Incon == 1 && c.Pass == 0 && c.Fail == 0
	}
}
