package main

import (
	"fmt"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tioco"
	"tigatest/internal/tiots"
)

// callTimer times the calls into one wrapped layer. Counts and busy time
// cover every call; per-call spans are kept only while sample is set,
// because a campaign makes millions of consultations and IUT calls and
// their spans would outgrow the memory the trace may use. The calls of one
// run are sequential, so the busy time is exactly the part of the run's
// span they cover.
type callTimer struct {
	tr     *tracer
	layer  string
	parent int64
	sample bool
	calls  int
	busy   time.Duration
}

func (c *callTimer) done(op string, t0 time.Time) {
	t1 := time.Now()
	c.calls++
	c.busy += t1.Sub(t0)
	if c.sample {
		c.tr.record(c.layer+"."+op, c.parent, t0, t1)
	}
}

// tracedIUT wraps an implementation so every Reset/Offer/Advance call is
// timed as the given layer ("tiots" for campaign cells, "adapter" for the
// inline implementation a serve-mixed client hosts). With record set it
// also rebuilds the observable trace the calls produced, so the tioco
// monitor can replay it.
type tracedIUT struct {
	callTimer
	inner  tiots.IUT
	record bool
	trace  tiots.Trace
}

func (w *tracedIUT) Reset() {
	t0 := time.Now()
	w.inner.Reset()
	w.done("reset", t0)
	w.trace = w.trace[:0]
}

func (w *tracedIUT) Offer(ch int) error {
	t0 := time.Now()
	err := w.inner.Offer(ch)
	w.done("offer", t0)
	if w.record && err == nil {
		w.trace = append(w.trace, tiots.Event{Chan: ch, Kind: model.Controllable})
	}
	return err
}

func (w *tracedIUT) Advance(d int64) *tiots.Output {
	t0 := time.Now()
	out := w.inner.Advance(d)
	w.done("advance", t0)
	if w.record {
		switch {
		case out == nil:
			w.trace = append(w.trace, tiots.Event{Delay: d, Chan: -1})
		default:
			if out.After > 0 {
				w.trace = append(w.trace, tiots.Event{Delay: out.After, Chan: -1})
			}
			w.trace = append(w.trace, tiots.Event{Chan: out.Chan, Kind: model.Uncontrollable})
		}
	}
	return out
}

// tracedConsultant wraps a strategy so every consultation is timed; its
// callTimer's layer is "game", so sampled spans read "game.consult".
type tracedConsultant struct {
	callTimer
	inner game.Consultant
}

func (c *tracedConsultant) System() *model.System { return c.inner.System() }
func (c *tracedConsultant) Cooperative() bool     { return c.inner.Cooperative() }
func (c *tracedConsultant) InitialNode() int      { return c.inner.InitialNode() }

func (c *tracedConsultant) InGoal(id int, val []int64, scale int64) bool {
	t0 := time.Now()
	ok := c.inner.InGoal(id, val, scale)
	c.done("consult", t0)
	return ok
}

func (c *tracedConsultant) StampAt(id int, val []int64, scale int64) int {
	t0 := time.Now()
	st := c.inner.StampAt(id, val, scale)
	c.done("consult", t0)
	return st
}

func (c *tracedConsultant) MoveAt(id int, val []int64, scale int64, bound int) (game.Move, error) {
	t0 := time.Now()
	mv, err := c.inner.MoveAt(id, val, scale, bound)
	c.done("consult", t0)
	return mv, err
}

func (c *tracedConsultant) FollowTransition(id int, ch int, val []int64, scale int64) (*symbolic.Transition, int, error) {
	t0 := time.Now()
	t, n, err := c.inner.FollowTransition(id, ch, val, scale)
	c.done("consult", t0)
	return t, n, err
}

// monitorReplay feeds an observed trace through a fresh tioco monitor, as
// texec.Run did while the run was live. Every event of a recorded trace
// was accepted then, so a rejection now is a wrong output.
type monitorReplay struct {
	events int
	peak   int
	busy   time.Duration
}

func (m *monitorReplay) replay(sys *model.System, plant []int, scale int64, tr tiots.Trace) error {
	t0 := time.Now()
	defer func() { m.busy += time.Since(t0) }()
	mon, err := tioco.NewMonitor(sys, plant, scale)
	if err != nil {
		return err
	}
	m.peak = max(m.peak, mon.StateCount())
	for _, e := range tr {
		switch {
		case e.IsDelay():
			err = mon.Delay(e.Delay)
		case e.Kind == model.Controllable:
			err = mon.Input(e.Chan)
		default:
			err = mon.Output(e.Chan)
		}
		if err != nil {
			return fmt.Errorf("tioco replay rejected event %d of %q: %w", m.events, tr.Format(sys, scale), err)
		}
		m.events++
		m.peak = max(m.peak, mon.StateCount())
	}
	return nil
}

// symbolicReplay is a breadth-first walk of the system's zone graph
// through symbolic.Explorer.AppendSuccessors — the successor computation
// every solver exploration runs — with the zones it visits kept for the
// dbm replay.
type symbolicReplay struct {
	states    int
	succCalls int
	busy      time.Duration
	zones     []*dbm.DBM
}

// maxReplayStates bounds the walk; the workloads' graphs are far smaller.
const maxReplayStates = 200000

func replaySymbolic(sys *model.System) (*symbolicReplay, error) {
	ex := symbolic.NewExplorer(sys, nil)
	init, err := ex.Initial()
	if err != nil {
		return nil, err
	}
	r := &symbolicReplay{}
	seen := map[uint64][]*symbolic.State{}
	intern := func(s *symbolic.State) bool {
		h := s.HashKey()
		for _, o := range seen[h] {
			if o.EqualTo(s) {
				return false
			}
		}
		seen[h] = append(seen[h], s)
		return true
	}
	intern(init)
	queue := []*symbolic.State{init}
	var buf []symbolic.Succ
	for len(queue) > 0 && r.states < maxReplayStates {
		s := queue[0]
		queue = queue[1:]
		r.states++
		r.zones = append(r.zones, s.Zone)
		t0 := time.Now()
		buf, err = ex.AppendSuccessors(buf[:0], s)
		r.busy += time.Since(t0)
		r.succCalls++
		if err != nil {
			return nil, err
		}
		for _, sc := range buf {
			if intern(sc.State) {
				queue = append(queue, sc.State)
			}
		}
	}
	return r, nil
}

// dbmReplay runs federation Intersect/Subtract/SubsetOf/Up over pairs of
// the replayed zones (a two-zone federation against a one-zone one, the
// shape the solver's winning-set updates take), then checks the algebra:
// an intersection lies inside both operands and a difference is disjoint
// from what was subtracted.
type dbmReplay struct {
	ops  int
	busy time.Duration
}

func replayDBM(zones []*dbm.DBM) (*dbmReplay, error) {
	r := &dbmReplay{}
	if len(zones) < 3 {
		return r, nil
	}
	dim := zones[0].Dim()
	var inter, diff []*dbm.Federation
	var as, bs []*dbm.Federation
	for i := 0; i+2 < len(zones); i++ {
		a := dbm.FedFromDBM(dim, zones[i])
		a.Add(zones[i+1])
		as = append(as, a)
		bs = append(bs, dbm.FedFromDBM(dim, zones[i+2]))
	}
	t0 := time.Now()
	for i := range as {
		inter = append(inter, as[i].Intersect(bs[i]))
		diff = append(diff, as[i].Subtract(bs[i]))
		_ = as[i].SubsetOf(bs[i])
		_ = as[i].Up()
	}
	r.busy = time.Since(t0)
	r.ops = 4 * len(as)
	for i := range as {
		if !inter[i].SubsetOf(as[i]) || !inter[i].SubsetOf(bs[i]) {
			return nil, fmt.Errorf("dbm replay: intersection %d escapes its operands", i)
		}
		if !diff[i].Intersect(bs[i]).IsEmpty() {
			return nil, fmt.Errorf("dbm replay: difference %d overlaps the subtrahend", i)
		}
	}
	return r, nil
}
