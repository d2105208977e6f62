package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/obs"
	"tigatest/internal/service"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

// serveSpec is the daemon workload: a closed loop of conns connections,
// each sending its next request only when the previous one has answered.
type serveSpec struct {
	conns      int
	synthShare float64 // share of requests that are cold synthesize calls
	setupReps  int     // daemon starts per run; setup_s is their median
	// rssAt is the cold synthesize count at which the daemon's peak RSS is
	// read. The cache grows with every cold purpose, so memory read at the
	// end of a timed window would grow with throughput and count a faster
	// daemon as a fatter one; a fixed amount of work keeps it comparable.
	rssAt int
	hot   []hotPurpose
}

// serveSlice is the length of one slice of the untraced window.
const serveSlice = time.Second

// hotPurpose is one read target: an inline run of a purpose the daemon has
// already solved, so the request is a cache hit followed by strategy
// consultation, the tioco monitor and adapter round trips to the
// implementation the client hosts.
type hotPurpose struct {
	model   string // built-in model name
	lepN    int
	purpose string
}

var serveMixed = serveSpec{
	conns:      2,
	synthShare: 0.1,
	setupReps:  11,
	rssAt:      2000,
	hot: []hotPurpose{
		{model: "smartlight", purpose: models.SmartLightGoal},
		{model: "smartlight", purpose: "control: A<> IUT.Dim"},
		{model: "traingate", purpose: models.TrainGateGoal},
		{model: "traingate", purpose: "control: A<> Gate.Closed"},
		{model: "lep", lepN: 3, purpose: models.LEPTP1},
		{model: "lep", lepN: 3, purpose: models.LEPTP2},
	},
}

// daemonArgs load the three models the workload talks to.
var daemonArgs = []string{"-listen", "127.0.0.1:0", "-quiet", "-models", "smartlight,traingate", "-lep-n", "3"}

// daemon is a running tigad child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the daemon's stdout reaches EOF
}

// startDaemon starts tigad and returns once a session has been greeted
// with hello — the point from which requests can be timed.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonArgs...)
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tigad: listening on "); ok {
				addrc <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address within 60s", bin)
	}
	cli, err := service.Dial(d.addr)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("greeting %s: %w", d.addr, err)
	}
	cli.Close()
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if it does not exit in
// time) and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	_ = d.cmd.Wait()
}

// serveInputs is everything the load generator prepares before timing:
// per hot purpose the implementation it hosts, and the seeded order in
// which cold purposes are requested.
type serveInputs struct {
	impls  []*model.System
	plants [][]int
	specs  []*model.System
	names  []string // daemon model names of the hot purposes
	pool   []string
	expect string
	order  []int
	cursor atomic.Int64
	// synthsDone counts the cold synthesize calls answered so far.
	synthsDone atomic.Int64
}

func (s *serveSpec) inputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{pool: coldPool()}
	var err error
	if in.expect, err = loadExpectations(in.pool); err != nil {
		return nil, err
	}
	for _, h := range s.hot {
		sys, _, plant, _, err := models.ByName(h.model, h.lepN)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, sys)
		in.names = append(in.names, sys.Name)
		in.plants = append(in.plants, plant)
		in.impls = append(in.impls, model.ExtractPlant(sys, plant, "Stub"))
	}
	in.order = rand.New(rand.NewSource(seed)).Perm(len(in.pool))
	return in, nil
}

// window is one measured interval of the closed loop.
type window struct {
	runs, synths   []time.Duration
	runsByHot      []int
	traces         [][]tiots.Trace // per hot purpose, the inline runs' observed traces (traced windows)
	wall           time.Duration
	cpu            time.Duration // load generator plus daemon
	exhausted      bool
	nodes, transit int
	// rss is the daemon's peak RSS once rssAt cold synthesize calls had
	// completed (0 if the window closed first).
	rss float64
	// adapterCalls/adapterBusy time the hosted implementations' calls —
	// one per adapter frame the daemon sent (traced windows).
	adapterCalls int
	adapterBusy  time.Duration
}

// load runs the closed loop for the given duration. With tr set, every
// client op is a span and the hosted implementations are wrapped.
func (s *serveSpec) load(d *daemon, in *serveInputs, seed int64, dur time.Duration, tr *tracer, out *outcome) *window {
	addr := d.addr
	w := &window{runsByHot: make([]int, len(s.hot)), traces: make([][]tiots.Trace, len(s.hot))}
	var mu sync.Mutex
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failMu.Lock()
		out.fail(format, args...)
		failMu.Unlock()
	}
	var attempted atomic.Int64
	var exhausted atomic.Bool
	pid := d.cmd.Process.Pid
	daemonCPU0, cpuErr := procCPU(pid)
	selfCPU0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mixSeed(seed, c)))
			iuts := make([]tiots.IUT, len(s.hot))
			traced := make([]*tracedIUT, len(s.hot))
			for i := range s.hot {
				iuts[i] = tiots.NewDetIUT(in.impls[i], tiots.Scale, nil)
				if tr != nil {
					traced[i] = &tracedIUT{callTimer: callTimer{tr: tr, layer: "adapter"}, inner: iuts[i], record: true}
					iuts[i] = traced[i]
				}
			}
			var cli *service.Client
			defer func() {
				if cli != nil {
					cli.Close()
				}
			}()
			var runs, synths []time.Duration
			var perHot = make([]int, len(s.hot))
			var traces = make([][]tiots.Trace, len(s.hot))
			var nodes, transit int
			for time.Now().Before(deadline) {
				if cli == nil {
					var err error
					if cli, err = service.Dial(addr); err != nil {
						attempted.Add(1)
						fail("connection %d: dial: %v", c, err)
						return
					}
				}
				if rng.Float64() < s.synthShare {
					i := int(in.cursor.Add(1)) - 1
					if i >= len(in.order) {
						exhausted.Store(true)
						break
					}
					p := in.pool[in.order[i]]
					attempted.Add(1)
					var sp openSpan
					if tr != nil {
						sp = tr.begin("service.synthesize", 0)
					}
					start := time.Now()
					si, err := cli.Synthesize(poolModel, p, "")
					took := time.Since(start)
					if tr != nil {
						sp.end()
					}
					if err != nil {
						fail("synthesize %q: %v", p, err)
						cli.Close()
						cli = nil
						continue
					}
					synths = append(synths, took)
					if in.synthsDone.Add(1) == int64(s.rssAt) {
						if rss, err := peakRSSMB(d.cmd.Process.Pid); err == nil {
							mu.Lock()
							w.rss = rss
							mu.Unlock()
						}
					}
					nodes += si.Nodes
					transit += si.Transitions
					want := in.expect[in.order[i]]
					if si.Winnable != (want != expectNone) || si.Cooperative != (want == expectCoop) {
						fail("synthesize %q: winnable=%v cooperative=%v, recorded outcome %c", p, si.Winnable, si.Cooperative, want)
					}
					continue
				}
				h := rng.Intn(len(s.hot))
				attempted.Add(1)
				var sp openSpan
				if tr != nil {
					sp = tr.begin("service.run", 0)
					traced[h].parent = sp.id
					traced[h].sample = len(runs) < spanSampleRuns
				}
				start := time.Now()
				ri, err := cli.Run(service.Request{Model: in.names[h], Purpose: s.hot[h].purpose, IUT: "inline"}, iuts[h])
				took := time.Since(start)
				if tr != nil {
					sp.end()
				}
				if err != nil {
					fail("run %s %q: %v", in.names[h], s.hot[h].purpose, err)
					cli.Close()
					cli = nil
					continue
				}
				runs = append(runs, took)
				perHot[h]++
				if tr != nil {
					traces[h] = append(traces[h], append(tiots.Trace(nil), traced[h].trace...))
				}
				if ri.Verdict != "pass" || ri.Pass != 1 {
					fail("run %s %q against the conformant implementation: %s %+v", in.names[h], s.hot[h].purpose, ri.Verdict, ri.Reasons)
				}
			}
			mu.Lock()
			w.runs = append(w.runs, runs...)
			w.synths = append(w.synths, synths...)
			for i := range perHot {
				w.runsByHot[i] += perHot[i]
				w.traces[i] = append(w.traces[i], traces[i]...)
			}
			w.nodes += nodes
			w.transit += transit
			for _, t := range traced {
				if t != nil {
					w.adapterCalls += t.calls
					w.adapterBusy += t.busy
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(t0)
	selfCPU := cpuTime() - selfCPU0
	daemonCPU1, err := procCPU(pid)
	if cpuErr == nil {
		cpuErr = err
	}
	if cpuErr != nil {
		attempted.Add(1)
		fail("daemon CPU time: %v", cpuErr)
	}
	w.cpu = selfCPU + daemonCPU1 - daemonCPU0
	w.exhausted = exhausted.Load()
	out.attempted += int(attempted.Load())
	return w
}

// merge adds an untraced slice's figures to the window.
func (w *window) merge(sl *window) {
	w.runs = append(w.runs, sl.runs...)
	w.synths = append(w.synths, sl.synths...)
	for i, n := range sl.runsByHot {
		w.runsByHot[i] += n
	}
	w.wall += sl.wall
	w.cpu += sl.cpu
	w.exhausted = w.exhausted || sl.exhausted
	w.nodes += sl.nodes
	w.transit += sl.transit
	if sl.rss != 0 {
		w.rss = sl.rss
	}
}

// mixSeed derives connection c's stream from the run seed (splitmix64).
func mixSeed(seed int64, c int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(c+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func stats(addr string) (*service.Stats, error) {
	cli, err := service.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	return cli.Stats()
}

func runServe(s *serveSpec, cfg *config) (*outcome, error) {
	out := &outcome{}
	in, err := s.inputs(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
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
	// A set-up sample is the CPU time of one daemon start up to its
	// greeting: the benchmark's own (spawning, dialling) plus the
	// daemon's.
	var setups []float64
	var d *daemon
	for i := 0; i < s.setupReps; i++ {
		if d != nil {
			d.stop()
		}
		c0 := cpuTime()
		if d, err = startDaemon(cfg.tigad); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		own := cpuTime() - c0
		daemonCPU, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: daemon CPU time: %w", err)
		}
		next, err := yard.read()
		if err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, refCPU(own+daemonCPU, prev, next))
		prev = next
	}
	defer d.stop()

	// Warm the read side: one run per hot purpose fills the cache (and the
	// model's explored skeleton) before anything is timed.
	warm, err := service.Dial(d.addr)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for h, hp := range s.hot {
		out.attempted++
		ri, err := warm.Run(service.Request{Model: in.names[h], Purpose: hp.purpose, IUT: "inline"}, tiots.NewDetIUT(in.impls[h], tiots.Scale, nil))
		if err != nil || ri.Verdict != "pass" {
			out.fail("warm-up run %s %q: %v %+v", in.names[h], hp.purpose, err, ri)
		}
	}
	warm.Close()
	fmt.Fprintf(cfg.log, "inputs: %d hot purposes, cold pool of %d, %d connections, daemon %s\n", len(s.hot), len(in.pool), s.conns, strings.Join(daemonArgs, " "))

	// The window is a run of slices, each a closed-loop stretch followed by
	// a stats call and a yardstick reading. The gated rates are the medians
	// of the slices' rates per reference CPU second.
	if prev, err = yard.read(); err != nil {
		return nil, err
	}
	before, err := stats(d.addr)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	first := before
	w := &window{runsByHot: make([]int, len(s.hot))}
	var runsPerCPU, solvesPerCPU []float64
	for i := int64(0); i == 0 || (w.wall < cfg.seconds && !w.exhausted); i++ {
		sl := s.load(d, in, cfg.seed+i<<32, min(serveSlice, cfg.seconds), nil, out)
		after, err := stats(d.addr)
		if err != nil {
			return nil, fmt.Errorf("stats: %w", err)
		}
		next, err := yard.read()
		if err != nil {
			return nil, err
		}
		ref := refCPU(sl.cpu, prev, next)
		prev = next
		runsPerCPU = append(runsPerCPU, float64(len(sl.runs))/ref)
		solvesPerCPU = append(solvesPerCPU, float64(after.Solver.Solves-before.Solver.Solves)/ref)
		w.merge(sl)
		before = after
	}
	after := before
	if w.exhausted {
		fmt.Fprintf(cfg.log, "note: the cold pool ran out; the window closed after %.2fs\n", w.wall.Seconds())
	}
	rss, rssNote := w.rss, fmt.Sprintf("after %d cold synthesize calls", s.rssAt)
	if rss == 0 {
		if rss, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
			return nil, err
		}
		rssNote = fmt.Sprintf("at the end of the window, after %d cold synthesize calls", len(w.synths))
	}

	secs := w.wall.Seconds()
	runMS := durations(w.runs, time.Millisecond)
	synthMS := durations(w.synths, time.Millisecond)
	solves := float64(after.Solver.Solves - first.Solver.Solves)
	e2e := !cfg.trace
	fmt.Fprintf(cfg.log, "yardstick: %s\n", yard.speedNote())
	out.addNote("setup_s", "s", median(setups), e2e, "reference CPU time of a daemon start: "+summarize(setups).String())
	out.addNote("test_runs_per_cpu_s", "1/ref_cpu_s", median(runsPerCPU), e2e,
		fmt.Sprintf("inline runs per reference CPU second of load generator and daemon, per slice: %s", summarize(runsPerCPU)))
	out.addNote("solves_per_cpu_s", "1/ref_cpu_s", median(solvesPerCPU), e2e,
		fmt.Sprintf("%.0f daemon solves for %d cold synthesize calls; per slice: %s", solves, len(w.synths), summarize(solvesPerCPU)))
	out.addNote("peak_rss_mb", "MB", rss, e2e, rssNote)
	out.addNote("test_runs_per_s", "1/s", float64(len(w.runs))/secs, false,
		fmt.Sprintf("%d inline runs in %.3fs, %.3fs CPU", len(w.runs), secs, w.cpu.Seconds()))
	out.addNote("solves_per_s", "1/s", solves/secs, false, "")
	run, synth := summarize(runMS), summarize(synthMS)
	out.addNote("run_p50_ms", "ms", run.Median, false, run.String())
	out.addNote("run_p99_ms", "ms", quantile(runMS, 0.99), false, run.String())
	out.addNote("synth_p50_ms", "ms", synth.Median, false, synth.String())
	out.addNote("synth_p90_ms", "ms", quantile(synthMS, 0.90), false, synth.String())
	out.addNote("req_per_s", "1/s", float64(len(w.runs)+len(w.synths))/secs, false,
		fmt.Sprintf("%d requests, %.1f%% synthesize", len(w.runs)+len(w.synths), 100*float64(len(w.synths))/float64(max(1, len(w.runs)+len(w.synths)))))
	if cfg.trace {
		if err := s.traceServe(d, in, cfg, run.Median, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceServe is the traced run: a second window with every client op a
// span and the hosted implementations wrapped (their calls are the
// adapter frames), the daemon's own counters and histograms from the
// stats op, and replays of what the daemon does internally — each inline
// run's observed trace through a tioco monitor, and one local run per
// inline run through the compiled strategy the daemon ships, with a
// wrapped consultant.
func (s *serveSpec) traceServe(d *daemon, in *serveInputs, cfg *config, untracedRunP50 float64, out *outcome) error {
	tr := newTracer()
	lm := newLayerMetrics()
	before, err := stats(d.addr)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	w := s.load(d, in, cfg.seed+1, cfg.seconds, tr, out)
	after, err := stats(d.addr)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	var clientBusy time.Duration
	for _, sp := range tr.snapshot() {
		if sp.layer() == "service" {
			clientBusy += time.Duration(sp.End - sp.Start)
		}
	}
	adapterBusy := w.adapterBusy

	// Replays.
	var mon monitorReplay
	for h := range s.hot {
		for _, t := range w.traces[h] {
			out.attempted++
			if err := mon.replay(in.specs[h], in.plants[h], tiots.Scale, t); err != nil {
				out.fail("%v", err)
			}
		}
	}
	exec, err := s.consultReplay(d.addr, in, w, tr, out)
	if err != nil {
		return err
	}
	exec.mon = mon
	// The zone-graph replays run on LEP n=3, the largest model the daemon
	// serves.
	lep, _, _, _, err := models.ByName("lep", 3)
	if err != nil {
		return err
	}
	if err := lm.replayModel(lep, out); err != nil {
		return err
	}
	exec.into(lm)

	// Daemon counters over the traced window.
	dh := after.Cache.Hits - before.Cache.Hits
	dm := after.Cache.Misses - before.Cache.Misses
	if dh+dm > 0 {
		lm.set("service.cache_hit_ratio", float64(dh)/float64(dh+dm))
	}
	ds := after.Solver
	bs := before.Solver
	lm.set("service.solves", float64(ds.Solves-bs.Solves))
	lm.set("service.solve_s", nanos(ds.SolveNanos-bs.SolveNanos))
	lm.set("game.solves", float64(ds.Solves-bs.Solves))
	lm.set("game.solve_s", nanos(ds.SolveNanos-bs.SolveNanos))
	lm.set("game.explore_s", nanos(ds.ExploreNanos-bs.ExploreNanos))
	lm.set("game.condense_s", nanos(ds.CondenseNanos-bs.CondenseNanos))
	lm.set("game.propagate_s", nanos(ds.PropagateNanos-bs.PropagateNanos))
	lm.set("game.overlay_s", nanos(ds.OverlayNanos-bs.OverlayNanos))
	lm.set("game.nodes", float64(w.nodes))
	lm.set("game.transitions", float64(w.transit))
	if h, m := ds.SkeletonCoreHits-bs.SkeletonCoreHits, ds.SkeletonCoreMisses-bs.SkeletonCoreMisses; h+m > 0 {
		lm.set("game.skeleton_core_hit_ratio", float64(h)/float64(h+m))
	}
	if c, err := histDelta(before, after, "tigad_compile_duration_seconds"); err == nil {
		lm.set("game.compile_s", nanos(c.SumNanos))
	}
	req, err := histDelta(before, after, "tigad_request_duration_seconds")
	if err != nil {
		return err
	}
	var all []time.Duration
	all = append(append(all, w.runs...), w.synths...)
	serverP50 := req.Quantile(0.5) * 1000
	lm.set("service.server_p50_ms", serverP50)
	lm.set("service.server_p99_ms", req.Quantile(0.99)*1000)
	lm.set("service.wire_ms_p50", median(durations(all, time.Millisecond))-serverP50)
	lm.set("adapter.frames", float64(w.adapterCalls))
	lm.set("adapter.iut_busy_s", adapterBusy.Seconds())

	// Shares of the connections' busy time (the sum of client-observed
	// latencies). Consultation, tioco and texec run inside the daemon, so
	// their shares are the replays' estimates of the same work.
	busy := clientBusy.Seconds()
	if busy > 0 {
		f := exec.selfCosts()
		shares := map[string]float64{
			"adapter": adapterBusy.Seconds() / busy,
			"game":    (nanos(ds.SolveNanos-bs.SolveNanos) + f["consult"]) / busy,
			"tioco":   f["tioco"] / busy,
			"texec":   f["texec"] / busy,
		}
		shares["execution"] = (f["consult"] + f["tioco"] + f["texec"]) / busy
		shares["service"] = 1 - shares["adapter"] - shares["game"] - shares["tioco"] - shares["texec"]
		lm.setShares(shares)
	}
	tracedP50 := median(durations(w.runs, time.Millisecond))
	lm.set("trace.overhead", tracedP50/untracedRunP50-1)
	fmt.Fprintf(cfg.log, "traced window: %d runs, %d synthesize, run p50 %.3fms vs untraced %.3fms\n", len(w.runs), len(w.synths), tracedP50, untracedRunP50)
	lm.emit(out)
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "spans: %d written to %s\n", len(tr.snapshot()), cfg.spans)
	}
	return nil
}

func nanos(n int64) float64 { return float64(n) / 1e9 }

// histDelta returns the named daemon histogram's observations between two
// stats snapshots.
func histDelta(before, after *service.Stats, name string) (obs.Snapshot, error) {
	find := func(st *service.Stats) (obs.Snapshot, bool) {
		for _, h := range st.Latency {
			if h.Name == name {
				return h, true
			}
		}
		return obs.Snapshot{}, false
	}
	a, ok := find(after)
	if !ok {
		return obs.Snapshot{}, errors.New("stats carry no " + name + " histogram")
	}
	b, ok := find(before)
	if !ok || len(b.Counts) != len(a.Counts) {
		return a, nil
	}
	d := a
	d.Counts = make([]int64, len(a.Counts))
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	d.Count = a.Count - b.Count
	d.SumNanos = a.SumNanos - b.SumNanos
	return d, nil
}

// consultReplay fetches each hot purpose's compiled strategy (the wire
// encoding the daemon consults) and plays one local run through it per
// inline run of that purpose in the traced window, with the consultant and
// the implementation wrapped.
func (s *serveSpec) consultReplay(addr string, in *serveInputs, w *window, tr *tracer, out *outcome) (*execReplay, error) {
	cli, err := service.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	e := &execReplay{}
	root := tr.begin("texec.replay", 0)
	for h, hp := range s.hot {
		si, err := cli.Strategy(in.names[h], hp.purpose, "")
		if err != nil {
			return nil, fmt.Errorf("strategy %s %q: %w", in.names[h], hp.purpose, err)
		}
		cs, err := game.Decode(in.specs[h], si.Encoded)
		if err != nil {
			return nil, fmt.Errorf("decoding %s %q: %w", in.names[h], hp.purpose, err)
		}
		factory := func(int64) (tiots.IUT, func(), error) {
			return tiots.NewDetIUT(in.impls[h], tiots.Scale, nil), nil, nil
		}
		for i := 0; i < w.runsByHot[h]; i++ {
			res, err := e.runTraced(tr, root.id, cs, factory, texec.Options{PlantProcs: in.plants[h]})
			out.attempted++
			if err != nil || res.Verdict != texec.Pass {
				out.fail("local compiled run %s %q: %v %v", in.names[h], hp.purpose, err, res)
			}
		}
	}
	root.end()
	return e, nil
}
