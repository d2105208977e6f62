// Ghost-overlay solving: edge-coverage purposes without re-exploration.
//
// An edge-coverage goal is solved on a ghost-instrumented clone of the
// specification — one extra 0/1 variable, assigned by the watched edge,
// with the purpose "ghost == 1". That clone's zone graph is exactly two
// layers of the un-instrumented graph: the ghost never appears in a guard,
// so enabledness, zones and extrapolation are untouched; the only change
// is that transitions containing the watched edge cross from the ghost==0
// layer to the ghost==1 layer, which stays absorbing. SolveEdgeGhost
// exploits this: instead of exploring a fresh clone per edge (firing every
// edge, canonicalizing and extrapolating zones all over again), it splits
// the batch's already-explored core skeleton into the two-layer overlay
// graph by pure graph replay — no zone is ever recomputed — and runs the
// ordinary per-purpose backward fixpoint on it.
//
// This file also holds the replay builder both replays share (the ghost
// overlay here, the delta replay of delta.go): it walks the engine's
// frontier-round exploration schedule, so node numbering,
// successor/predecessor order, and node/transition counts are identical
// to what exploring the replayed system would have produced — the solve is
// the same computation on the same graph, byte-for-byte, minus the
// exploration cost.

package game

import (
	"fmt"
	"time"

	"tigatest/internal/model"
	"tigatest/internal/symbolic"
	"tigatest/internal/tctl"
)

// replay builds a zone graph from a frozen one without exploring it. The
// caller supplies the wiring of one node as a closure; replay numbers nodes
// in discovery order and wires them in id order, which is the engine's
// frontier-round schedule.
type replay struct {
	nodes       []*node
	transitions int
	maxNodes    int
	cancel      <-chan struct{}
}

// grow admits one more node: it enforces the node budget and polls cancel
// every 4096 nodes (ErrCanceled once closed).
func (r *replay) grow() error {
	if r.maxNodes > 0 && len(r.nodes)+1 > r.maxNodes {
		return budgetNodesErr(r.maxNodes)
	}
	if r.cancel != nil && len(r.nodes)&4095 == 0 {
		select {
		case <-r.cancel:
			return ErrCanceled
		default:
		}
	}
	return nil
}

// link appends the transition from node id to node tid.
func (r *replay) link(id int, trans symbolic.Transition, tid int) {
	r.nodes[id].succs = append(r.nodes[id].succs, succRef{trans: trans, target: tid})
	r.nodes[tid].addPred(id)
	r.transitions++
}

// run wires every node in id order: each frontier round's discoveries are
// numbered after every node of the round itself.
func (r *replay) run(wire func(id int) error) error {
	for id := 0; id < len(r.nodes); id++ {
		if err := wire(id); err != nil {
			return err
		}
	}
	return nil
}

// overlayKey identifies one cached overlay skeleton: the core signature it
// was split from, the watched edge, and — for overlays split from a mutant
// delta skeleton (Batch.SolveDeltaEdgeGhost) — the mutant's edit-set hash.
// The hash matters even though the signature alone keys the underlying
// graphs map: a mutation that leaves every clock constant unchanged (edge
// retargeting, output swapping) shares the base signature while its overlay
// graph differs. edits is 0 for overlays over the un-mutated core.
type overlayKey struct {
	sig   string
	edge  int
	edits uint64
}

// SolveEdgeGhost solves an edge-coverage purpose against inst — a
// ghost-instrumented clone of the batch system whose appended 0/1 variable
// is assigned by the edge with the given global id — without exploring
// inst: the un-instrumented core skeleton (shared with every other purpose
// of the same extrapolation signature) is split into the two-layer ghost
// overlay and the backward fixpoint runs on that. The result, including
// node numbering and statistics, is identical to NewBatch(inst).Solve(f,
// coop); Stats additionally reports the core skeleton reuse in
// SkeletonCoreHits/SkeletonCoreMisses, while SkeletonHits/SkeletonMisses
// track the per-edge overlay (shared between the strict and cooperative
// solve of one goal).
//
// inst must differ from the batch system only by the appended variable and
// the watched edge's extra assignment (campaign.instrumentEdge's
// construction); clocks, locations, channels and edge ids must match.
func (b *Batch) SolveEdgeGhost(inst *model.System, formula *tctl.Formula, edgeID int, coop bool) (*Result, error) {
	s, err := b.newSolver(inst, formula, coop)
	if err != nil {
		return nil, err
	}
	if inst.NumClocks() != b.sys.NumClocks() || len(inst.Procs) != len(b.sys.Procs) {
		return nil, fmt.Errorf("game: ghost overlay: instrumented system does not match the batch core")
	}
	core, sig, coreHit, err := b.coreSkeleton(formula)
	if err != nil {
		return nil, err
	}
	s.stats.chargeCore(core, coreHit)
	return b.solveGhost(s, core, overlayKey{sig: sig, edge: edgeID})
}

// solveGhost runs s on the ghost overlay of key.edge split from base (the
// core skeleton, or a mutant's delta skeleton), replaying the overlay on a
// cache miss.
func (b *Batch) solveGhost(s *solver, base *skeleton, key overlayKey) (*Result, error) {
	ov, ok := b.overlays.get(key)
	if ok {
		s.stats.SkeletonHits++
	} else {
		s.stats.SkeletonMisses++
		t0 := time.Now()
		var err error
		if ov, err = ghostOverlay(base, key.edge, b.opts.MaxNodes, b.opts.Cancel); err != nil {
			return nil, err
		}
		ov.buildDur = time.Since(t0)
		s.stats.OverlayDuration += ov.buildDur
		b.overlays.put(key, ov)
	}
	return s.solveOn(ov, nil, nil, nil)
}

// ghostOverlay replays the core skeleton into the two-layer overlay graph
// of the watched edge. Layer 0 holds the states reachable before the edge
// ever fired, layer 1 the states reachable after — only the latter are
// split, so the overlay has at most |core| + |reachable-after| nodes.
// States carry the appended ghost value (symbolic.State.WithOverlayVar),
// so goal evaluation, strategy rendering and trace formatting against the
// instrumented system work unchanged; zones and location vectors are
// shared with the core, never copied.
func ghostOverlay(core *skeleton, edgeID int, maxNodes int, cancel <-chan struct{}) (*skeleton, error) {
	watched := func(t *symbolic.Transition) bool {
		for _, e := range t.Edges {
			if e.ID == edgeID {
				return true
			}
		}
		return false
	}

	r := &replay{maxNodes: maxNodes, cancel: cancel}
	// ids maps (core node, layer) to the overlay id; skelOf/layerOf invert.
	ids := make([][2]int, len(core.nodes))
	for i := range ids {
		ids[i] = [2]int{-1, -1}
	}
	var (
		skelOf  []int
		layerOf []int8
	)
	add := func(skel, layer int) (int, error) {
		if err := r.grow(); err != nil {
			return 0, err
		}
		o := core.nodes[skel]
		id := len(r.nodes)
		r.nodes = append(r.nodes, &node{
			id:       id,
			st:       o.st.WithOverlayVar(int32(layer)),
			zoneFed:  o.zoneFed,
			explored: true,
		})
		ids[skel][layer] = id
		skelOf = append(skelOf, skel)
		layerOf = append(layerOf, int8(layer))
		return id, nil
	}
	// Each overlay node replays its core counterpart's frozen successor
	// list, preserving successor order (and therefore predecessor order and
	// numbering of newly found nodes).
	wire := func(id int) error {
		o := core.nodes[skelOf[id]]
		for i := range o.succs {
			sc := &o.succs[i]
			layer := int(layerOf[id])
			if layer == 0 && watched(&sc.trans) {
				layer = 1
			}
			tid := ids[sc.target][layer]
			if tid < 0 {
				var err error
				if tid, err = add(sc.target, layer); err != nil {
					return err
				}
			}
			r.link(id, sc.trans, tid)
		}
		return nil
	}

	if _, err := add(0, 0); err != nil {
		return nil, err
	}
	if err := r.run(wire); err != nil {
		return nil, err
	}
	return &skeleton{ex: core.ex, nodes: r.nodes, transitions: r.transitions, layers: layerOf}, nil
}
