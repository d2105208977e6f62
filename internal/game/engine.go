// Solve engine: a sharded, hash-interned node store plus a worker pool
// that explores the zone graph in frontier rounds.
//
// Successor computation (the expensive, pure part: firing every edge,
// canonicalizing zones, extrapolating) runs on Options.Workers goroutines;
// graph wiring stays sequential, so node numbering and the exploration
// rounds are identical for every worker count. Backward propagation runs
// as bottom-up passes over the SCC condensation of the explored graph
// (scc.go, propagate.go) on Options.PropagationWorkers goroutines; the
// win-set fixpoint is a unique least fixpoint, so every worker count
// produces semantically equal winning sets (zone decompositions may differ
// run to run above one propagation worker). See DESIGN.md for the full
// protocol.

package game

import (
	"sync"
	"sync/atomic"
	"time"

	"tigatest/internal/dbm"
	"tigatest/internal/symbolic"
)

// storeShardCount is the number of independently locked shards of the node
// store. Power of two; generous relative to typical worker counts so
// lookups of distinct discrete states rarely contend.
const storeShardCount = 64

// storeShard is one lock stripe of the node store: an open chain from full
// state hash to the interned nodes carrying that hash.
type storeShard struct {
	mu sync.Mutex
	m  map[uint64][]*node
}

// nodeStore interns symbolic states. States that differ only in their zone
// share a shard (the shard index is the discrete hash), which keeps each
// discrete location vector's zones on one lock.
type nodeStore struct {
	shards  [storeShardCount]storeShard
	created atomic.Int64 // nodes interned so far (registered or not)
}

func newNodeStore() *nodeStore {
	s := &nodeStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64][]*node)
	}
	return s
}

// lookupOrAdd interns st. New nodes are created with id -1 and must be
// numbered by registerNode on the sequential side; the boolean reports
// whether this call created the node. Safe for concurrent use.
func (s *solver) lookupOrAdd(st *symbolic.State) (*node, bool, error) {
	h := st.HashKey()
	sh := &s.store.shards[st.DiscreteHash()&(storeShardCount-1)]
	sh.mu.Lock()
	for _, n := range sh.m[h] {
		if n.st.EqualTo(st) {
			sh.mu.Unlock()
			return n, false, nil
		}
	}
	sh.mu.Unlock()

	// Reserve a slot up front so the MaxNodes budget is exact even under
	// concurrent interning (check-then-increment would let racing workers
	// overshoot it).
	if reserved := s.store.created.Add(1); s.opts.MaxNodes > 0 && int(reserved) > s.opts.MaxNodes {
		s.store.created.Add(-1)
		return nil, false, budgetNodesErr(s.opts.MaxNodes)
	}
	// Compute the goal federation outside the lock (formula evaluation can
	// be expensive); double-check for a racing insert afterwards. Skeleton
	// building (game.Batch) skips it: the per-purpose fixpoint recomputes
	// every goal on its own nodes, so evaluating here would be wasted work —
	// and the driving formula may not even be well-typed against this system
	// (a ghost-overlay purpose references a variable the core lacks).
	var goal *dbm.Federation
	if !s.exploreOnly {
		var err error
		if goal, err = s.nodeGoal(st); err != nil {
			s.store.created.Add(-1)
			return nil, false, err
		}
	}
	n := &node{
		id:      -1,
		st:      st,
		zoneFed: dbm.FedFromDBM(st.Zone.Dim(), st.Zone),
		goal:    goal,
		win:     dbm.NewFederation(st.Zone.Dim()),
	}
	sh.mu.Lock()
	for _, o := range sh.m[h] {
		if o.st.EqualTo(st) {
			sh.mu.Unlock()
			s.store.created.Add(-1) // lost the race; release the slot
			return o, false, nil
		}
	}
	sh.m[h] = append(sh.m[h], n)
	sh.mu.Unlock()
	return n, true, nil
}

// registerNode numbers an interned node and schedules it for exploration.
// Sequential side only.
func (s *solver) registerNode(n *node) {
	n.id = len(s.nodes)
	s.nodes = append(s.nodes, n)
	s.inReeval = append(s.inReeval, false)
	s.exploreQ = append(s.exploreQ, n.id)
	s.stats.Nodes++
}

// workerSucc is one successor found by a worker, prior to wiring.
type workerSucc struct {
	trans symbolic.Transition
	n     *node
}

// exploreTask is the per-frontier-node result of a worker.
type exploreTask struct {
	succs []workerSucc
	err   error
}

// exploreBatch explores the current frontier (every node on s.exploreQ)
// with the worker pool, then wires results into the graph in deterministic
// (frontier order, successor order) order: new nodes are numbered on the
// sequential side and form the next frontier, so node ids do not depend on
// worker timing. Per-worker Stats are merged at the end. Its wall-clock is
// charged to Stats.ExploreDuration here, so every caller is attributed.
func (s *solver) exploreBatch() error {
	defer func(t0 time.Time) { s.stats.ExploreDuration += time.Since(t0) }(time.Now())
	frontier := s.exploreQ
	s.exploreQ = nil
	tasks := make([]exploreTask, len(frontier))
	workers := s.workers
	if workers > len(frontier) {
		workers = len(frontier)
	}
	var cursor atomic.Int64
	wstats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []symbolic.Succ
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				// Per-task cancel poll: frontiers reach hundreds of
				// thousands of nodes, far too coarse for the round-level
				// checkBudget alone.
				if err := s.checkCancel(); err != nil {
					tasks[i] = exploreTask{err: err}
					continue
				}
				buf, tasks[i] = s.exploreOne(frontier[i], buf[:0], &wstats[w])
			}
		}(w)
	}
	wg.Wait()
	for w := range wstats {
		s.stats.merge(wstats[w])
	}

	// Sequential wiring, in deterministic order.
	for i, id := range frontier {
		t := &tasks[i]
		if t.err != nil {
			return t.err
		}
		n := s.nodes[id]
		n.explored = true
		for _, ws := range t.succs {
			if ws.n.id < 0 {
				s.registerNode(ws.n)
			}
			n.succs = append(n.succs, succRef{trans: ws.trans, target: ws.n.id})
			ws.n.addPred(id)
			s.logCondEdit(id, ws.n.id)
		}
		s.scheduleReeval(id)
	}
	return nil
}

// exploreOne computes and interns the successors of one node. Worker side:
// it must not touch s.nodes, node ids, or any sequential-side state.
func (s *solver) exploreOne(id int, buf []symbolic.Succ, wst *Stats) ([]symbolic.Succ, exploreTask) {
	n := s.nodes[id]
	succs, err := s.ex.AppendSuccessors(buf, n.st)
	if err != nil {
		return succs, exploreTask{err: err}
	}
	t := exploreTask{}
	if len(succs) > 0 {
		t.succs = make([]workerSucc, 0, len(succs))
	}
	for i := range succs {
		nn, created, err := s.lookupOrAdd(succs[i].State)
		if err != nil {
			return succs, exploreTask{err: err}
		}
		if !created {
			// Duplicate successor: its freshly built zone is garbage
			// (sync.Pool is safe for concurrent release).
			succs[i].State.Zone.Release()
		}
		t.succs = append(t.succs, workerSucc{trans: succs[i].Trans, n: nn})
		wst.Transitions++
	}
	return succs, t
}

// exploreAll explores the zone graph to exhaustion in frontier rounds:
// every node registered so far is explored in one exploreBatch call, the
// nodes it discovers form the next frontier.
func (s *solver) exploreAll() error {
	for len(s.exploreQ) > 0 {
		if err := s.checkBudget(); err != nil {
			return err
		}
		if err := s.exploreBatch(); err != nil {
			return err
		}
	}
	return nil
}

// runBackward is the Backward algorithm: phase 1 explores the full zone
// graph; phase 2 runs the SCC-condensed bottom-up fixpoint (propagate.go)
// seeded with every node — exploreBatch scheduled each explored node
// exactly once, so the global re-evaluation queue already IS the full seed
// set. Solving components to local convergence in reverse topological
// order reaches the global least fixpoint in a single pass over the
// condensation.
func (s *solver) runBackward() error {
	if err := s.exploreAll(); err != nil {
		return err
	}
	seeds := s.reevalQ
	s.reevalQ = nil
	return s.propagate(seeds, false)
}

// runOnTheFly is the on-the-fly algorithm: batched rounds that alternate a
// full exploration of the current frontier with an SCC propagation pass
// over the incremental condensation of the graph explored so far, seeded
// with this round's scheduled nodes (propagate.go). Early termination is
// checked inside the pass whenever the initial node's winning set grows
// and again between rounds.
func (s *solver) runOnTheFly() error {
	for len(s.exploreQ) > 0 || len(s.reevalQ) > 0 {
		if len(s.reevalQ) > 0 {
			if err := s.checkBudget(); err != nil {
				return err
			}
			seeds := s.reevalQ
			s.reevalQ = nil
			if err := s.propagate(seeds, s.opts.EarlyTermination); err != nil {
				return err
			}
			if s.opts.EarlyTermination && s.initialDecided() {
				return nil
			}
		}
		if len(s.exploreQ) == 0 {
			return nil
		}
		if err := s.checkBudget(); err != nil {
			return err
		}
		if err := s.exploreBatch(); err != nil {
			return err
		}
	}
	return nil
}

// merge folds a worker's statistics into s.
func (s *Stats) merge(o Stats) {
	s.Nodes += o.Nodes
	s.Transitions += o.Transitions
	s.Reevals += o.Reevals
	s.Updates += o.Updates
	s.CrossSCCMessages += o.CrossSCCMessages
	if o.PeakHeapBytes > s.PeakHeapBytes {
		s.PeakHeapBytes = o.PeakHeapBytes
	}
}
