package pathfind

import (
	"math"
	"sync"

	"truthfulufp/internal/graph"
)

// Scratch is the reusable state of one Dijkstra run: an indexed 4-ary
// heap, dist/prev slices, and generation-stamped visited marks so reset
// between runs is O(1) instead of O(n). A Scratch is not safe for
// concurrent use; share scratches across goroutines with a Pool.
//
// The 4-ary layout halves the tree depth of the binary heap that used
// to sit in the solver's innermost loop, trading slightly more sibling
// comparisons (which hit one cache line) for fewer swaps.
type Scratch struct {
	dist  []float64
	prevE []int32
	prevV []int32
	stamp []uint32
	gen   uint32
	order []int32 // vertices reached this run, in first-touch order
	heap  []int32 // 4-ary min-heap of vertices keyed by dist
	pos   []int32 // vertex -> heap index, -1 if absent
	// keys[v] is v's leximax key in bottleneck runs: the weights of v's
	// canonical path, sorted descending (see Bottleneck). dist[v] mirrors
	// keys[v][0] so the heap's hot comparison stays scalar; full keys are
	// consulted only on ties. cand is the candidate-key build buffer.
	keys [][]float64
	cand []float64
	lex  bool // this run orders the heap by leximax keys, not dist alone
	// A*-mode state (see shortestPathToPot): pi[v] is v's potential for
	// this run and fsc[v] = dist[v] + pi[v] the heap key. Potentials are
	// fixed per vertex per run, so fsc only changes when dist does.
	pi    []float64
	fsc   []float64
	astar bool // this run orders the heap by fsc, not dist
}

// NewScratch returns a Scratch sized for graphs with up to n vertices;
// it grows on demand if used on a larger graph.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.grow(n)
	return s
}

// grow ensures capacity for n vertices, preserving generation marks of
// the existing prefix.
func (s *Scratch) grow(n int) {
	if n <= len(s.dist) {
		return
	}
	old := len(s.dist)
	s.dist = append(s.dist, make([]float64, n-old)...)
	s.pi = append(s.pi, make([]float64, n-old)...)
	s.fsc = append(s.fsc, make([]float64, n-old)...)
	s.keys = append(s.keys, make([][]float64, n-old)...)
	s.prevE = append(s.prevE, make([]int32, n-old)...)
	s.prevV = append(s.prevV, make([]int32, n-old)...)
	s.stamp = append(s.stamp, make([]uint32, n-old)...)
	s.pos = append(s.pos, make([]int32, n-old)...)
	for v := old; v < n; v++ {
		s.pos[v] = -1
	}
}

// reset starts a new generation: every vertex becomes unvisited in O(1)
// (amortized — a uint32 wraparound pays one O(n) clear every 2^32 runs).
func (s *Scratch) reset(n int) {
	s.grow(n)
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	s.order = s.order[:0]
	s.heap = s.heap[:0]
	s.lex = false
	s.astar = false
}

// touch marks v visited this generation and records it for
// materialization.
func (s *Scratch) touch(v int32) {
	s.stamp[v] = s.gen
	s.order = append(s.order, v)
}

// Dijkstra runs shortest paths from src under nonnegative weights,
// reusing the scratch's buffers, and materializes the result into t
// (allocated when nil). Semantics match the package-level Dijkstra —
// including the canonical largest-edge-ID tie-break — with zero
// steady-state allocation when t is reused.
func (s *Scratch) Dijkstra(g *graph.Graph, src int, weight WeightFunc, t *Tree) *Tree {
	n := g.NumVertices()
	s.reset(n)
	s.touch(int32(src))
	s.dist[src] = 0
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	if csr := g.Frozen(); csr != nil {
		for len(s.heap) > 0 {
			v := s.pop()
			dv := s.dist[v]
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relax(v, csr.EdgeID[k], csr.Head[k], dv, weight)
			}
		}
	} else {
		for len(s.heap) > 0 {
			v := s.pop()
			dv := s.dist[v]
			for _, a := range g.OutArcs(int(v)) {
				s.relax(v, int32(a.Edge), int32(a.To), dv, weight)
			}
		}
	}
	return s.fill(t, src, n)
}

// relax processes one arc v -(e)-> to with dv = dist[v]. Ties on the
// final distance keep the largest edge ID (see Dijkstra).
func (s *Scratch) relax(v, e, to int32, dv float64, weight WeightFunc) {
	w := weight(int(e))
	if math.IsInf(w, 1) {
		return
	}
	nd := dv + w
	if s.stamp[to] != s.gen {
		s.touch(to)
		s.dist[to] = nd
		s.prevE[to], s.prevV[to] = e, v
		s.push(to)
		return
	}
	switch d := s.dist[to]; {
	case nd < d:
		s.dist[to] = nd
		s.prevE[to], s.prevV[to] = e, v
		s.decrease(to)
	case nd == d && e > s.prevE[to]:
		s.prevE[to], s.prevV[to] = e, v
	}
}

// Bottleneck runs the KindBottleneck search from src (see the package-
// level Bottleneck) on the scratch's indexed 4-ary heap and
// generation-stamped marks, materializing into t (allocated when nil);
// it allocates nothing in steady state once its per-vertex key buffers
// have grown to the graph's path lengths.
//
// The search is Dijkstra over the leximax key: a path's key is its edge
// weights sorted descending, compared lexicographically with a shorter
// prefix ranking below its extensions, and among arcs achieving a
// vertex's final key the largest edge ID wins — the canonical tie-break
// shared with the additive Dijkstra. Leximax is the refinement of the
// minimax value (the key's first element, which Tree.Dist reports) that
// makes the canonical tree both well defined and reusable:
//
//   - Appending an edge strictly grows a key, so predecessor keys
//     strictly decrease along every tree path and the canonical tree is
//     acyclic by construction (a pure minimax value-tie retarget can
//     close predecessor cycles).
//   - A vertex's key is monotone non-decreasing under any weight
//     increase — keys keep every weight on the path, so no increase can
//     hide behind a dominating maximum. Scalar secondaries (hop count,
//     weight sum) lack exactly this: worsening a vertex's minimax can
//     shrink its secondary and mint brand-new tie-achievers elsewhere,
//     which is fatal to the Incremental cache's bit-identity contract
//     under target-restricted recording.
func (s *Scratch) Bottleneck(g *graph.Graph, src int, weight WeightFunc, t *Tree) *Tree {
	n := g.NumVertices()
	s.reset(n)
	s.lex = true
	s.touch(int32(src))
	s.dist[src] = math.Inf(-1) // the empty path has no edges: -Inf max
	s.keys[src] = s.keys[src][:0]
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	if csr := g.Frozen(); csr != nil {
		for len(s.heap) > 0 {
			v := s.pop()
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relaxMax(v, csr.EdgeID[k], csr.Head[k], weight)
			}
		}
	} else {
		for len(s.heap) > 0 {
			v := s.pop()
			for _, a := range g.OutArcs(int(v)) {
				s.relaxMax(v, int32(a.Edge), int32(a.To), weight)
			}
		}
	}
	return s.fill(t, src, n)
}

// lexLess compares two leximax keys (sorted descending); a key that is
// a prefix of another ranks below it.
func lexLess(a, b []float64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lexEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// relaxMax is relax under the leximax objective: the candidate key is
// keys[v] with w inserted in sorted order, improvements replace the
// key, and full-key ties retarget to the larger edge ID (see
// Bottleneck). The scalar maximum (dist) screens candidates first, so
// full-key work only runs on minimax ties.
func (s *Scratch) relaxMax(v, e, to int32, weight WeightFunc) {
	w := weight(int(e))
	if math.IsInf(w, 1) {
		return
	}
	nd := math.Max(s.dist[v], w)
	if s.stamp[to] == s.gen && nd > s.dist[to] {
		return // scalar screen: candidate max already worse
	}
	// Build the candidate key: keys[v] ∪ {w}, sorted descending.
	kv := s.keys[v]
	s.cand = s.cand[:0]
	inserted := false
	for _, x := range kv {
		if !inserted && w > x {
			s.cand = append(s.cand, w)
			inserted = true
		}
		s.cand = append(s.cand, x)
	}
	if !inserted {
		s.cand = append(s.cand, w)
	}
	if s.stamp[to] != s.gen {
		s.touch(to)
		s.dist[to] = nd
		s.keys[to] = append(s.keys[to][:0], s.cand...)
		s.prevE[to], s.prevV[to] = e, v
		s.push(to)
		return
	}
	switch {
	case nd < s.dist[to] || lexLess(s.cand, s.keys[to]):
		s.dist[to] = nd
		s.keys[to] = append(s.keys[to][:0], s.cand...)
		s.prevE[to], s.prevV[to] = e, v
		s.decrease(to)
	case e > s.prevE[to] && lexEqual(s.cand, s.keys[to]):
		s.prevE[to], s.prevV[to] = e, v
	}
}

// ShortestPathTo answers a single-target query: the canonical shortest
// path from src to dst under nonnegative weights, its distance, and
// whether dst is reachable. It is the early-exit form of Dijkstra — the
// search stops once every vertex at least as close as dst has been
// settled, rather than materializing a whole tree — and its answer is
// bit-identical to s.Dijkstra(...) followed by Tree.PathTo(dst) /
// Tree.Dist[dst]: the largest-edge-ID tie-break of every vertex on the
// path is resolved by relaxations out of vertices no farther than dst,
// all of which have been processed when the search stops. The mechanism
// layer's critical-value bisection runs on this query (via
// Incremental.PathTo) instead of full trees.
func (s *Scratch) ShortestPathTo(g *graph.Graph, src, dst int, weight WeightFunc) ([]int, float64, bool) {
	n := g.NumVertices()
	s.reset(n)
	s.touch(int32(src))
	s.dist[src] = 0
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	csr := g.Frozen()
	found := false
	var dd float64
	for len(s.heap) > 0 {
		v := s.pop()
		dv := s.dist[v]
		if found && dv > dd {
			break // every relaxation that can reach key <= dist[dst] is done
		}
		if int(v) == dst {
			found, dd = true, dv
		}
		if csr != nil {
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relax(v, csr.EdgeID[k], csr.Head[k], dv, weight)
			}
		} else {
			for _, a := range g.OutArcs(int(v)) {
				s.relax(v, int32(a.Edge), int32(a.To), dv, weight)
			}
		}
	}
	if !found {
		return nil, math.Inf(1), false
	}
	return s.pathOut(src, dst), dd, true
}

// runAdditiveCSR runs a full additive Dijkstra from src over an
// explicit CSR — the forward or reverse adjacency — leaving the result
// in the scratch state (dist/prevE/prevV over s.order) instead of
// materializing a Tree. Tie-break and semantics match Dijkstra.
// Landmark table construction runs on this.
func (s *Scratch) runAdditiveCSR(csr *graph.CSR, n int, src int32, weight WeightFunc) {
	s.reset(n)
	s.touch(src)
	s.dist[src] = 0
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(src)
	for len(s.heap) > 0 {
		v := s.pop()
		dv := s.dist[v]
		for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
			s.relax(v, csr.EdgeID[k], csr.Head[k], dv, weight)
		}
	}
}

// runMinimaxCSR runs a full scalar minimax (bottleneck) Dijkstra from
// src over an explicit CSR, leaving dist in the scratch state. Only the
// distance values matter — the run backs landmark minimax table
// construction, which never reads predecessors — so no leximax keys are
// maintained: the scalar minimax value of a vertex is tie-break
// independent.
func (s *Scratch) runMinimaxCSR(csr *graph.CSR, n int, src int32, weight WeightFunc) {
	s.reset(n)
	s.touch(src)
	s.dist[src] = math.Inf(-1) // the empty path has no edges: -Inf max
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(src)
	for len(s.heap) > 0 {
		v := s.pop()
		dv := s.dist[v]
		for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
			e, to := csr.EdgeID[k], csr.Head[k]
			w := weight(int(e))
			if math.IsInf(w, 1) {
				continue
			}
			nd := math.Max(dv, w)
			if s.stamp[to] != s.gen {
				s.touch(to)
				s.dist[to] = nd
				s.prevE[to], s.prevV[to] = e, v
				s.push(to)
			} else if nd < s.dist[to] {
				s.dist[to] = nd
				s.prevE[to], s.prevV[to] = e, v
				s.decrease(to)
			}
		}
	}
}

// altSlack is the relative slack on the A* stop bound. With a potential
// that is consistent in exact arithmetic, float rounding of the
// potential (differences of accumulated path sums) can overshoot a
// tie-achieving vertex's f-key past dist[dst] by a few ulps; the search
// therefore settles everything with f <= dist[dst]·(1+altSlack) before
// stopping. The extra vertices cannot perturb the answer — an exact-tie
// retarget of a vertex v needs dist[u] + w == dist[v] <= dist[dst] with
// w >= 0, which pins dist[u] <= dist[dst], a vertex both the plain
// early-exit search and the A* search settle — so the slack buys float
// robustness without costing bit-identity.
const altSlack = 1e-12

// relaxA is relax for A* runs: identical tie-break, plus maintenance of
// the fsc heap key and one potential evaluation on first touch.
func (s *Scratch) relaxA(v, e, to int32, dv float64, weight WeightFunc, pot func(int32) float64) {
	w := weight(int(e))
	if math.IsInf(w, 1) {
		return
	}
	nd := dv + w
	if s.stamp[to] != s.gen {
		s.touch(to)
		s.dist[to] = nd
		s.pi[to] = pot(to)
		s.fsc[to] = nd + s.pi[to]
		s.prevE[to], s.prevV[to] = e, v
		s.push(to)
		return
	}
	switch d := s.dist[to]; {
	case nd < d:
		s.dist[to] = nd
		s.fsc[to] = nd + s.pi[to]
		s.prevE[to], s.prevV[to] = e, v
		s.decrease(to)
	case nd == d && e > s.prevE[to]:
		s.prevE[to], s.prevV[to] = e, v
	}
}

// shortestPathToPot is ShortestPathTo guided by a potential: Dijkstra
// ordered by f(v) = dist[v] + pot(v). pot must be consistent w.r.t. the
// weights (pot(u) <= w(u->v) + pot(v) on every arc, up to float
// rounding) with pot(dst) == 0, which makes it an admissible lower
// bound on the remaining distance; then every vertex is settled at
// most once (modulo ulp re-opens, which decrease handles) and the
// search can stop once every f-key at most dist[dst] — every vertex
// that can supply a canonical tie on the returned path — is settled.
// The answer is bit-identical to ShortestPathTo: identical dist values
// (the same float sums along the same paths) and identical
// largest-edge-ID retargets along the path (see altSlack).
func (s *Scratch) shortestPathToPot(g *graph.Graph, src, dst int, weight WeightFunc, pot func(int32) float64) ([]int, float64, bool) {
	n := g.NumVertices()
	s.reset(n)
	s.astar = true
	s.touch(int32(src))
	s.dist[src] = 0
	s.pi[src] = pot(int32(src))
	s.fsc[src] = s.pi[src]
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	csr := g.Frozen()
	found := false
	var dd, bound float64
	for len(s.heap) > 0 {
		v := s.pop()
		if found && s.fsc[v] > bound {
			break // every f-key that can reach or tie dist[dst] is settled
		}
		dv := s.dist[v]
		if int(v) == dst {
			found, dd = true, dv
			bound = dd * (1 + altSlack)
		}
		if csr != nil {
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relaxA(v, csr.EdgeID[k], csr.Head[k], dv, weight, pot)
			}
		} else {
			for _, a := range g.OutArcs(int(v)) {
				s.relaxA(v, int32(a.Edge), int32(a.To), dv, weight, pot)
			}
		}
	}
	if !found {
		return nil, math.Inf(1), false
	}
	return s.pathOut(src, dst), dd, true
}

// ShortestPathToALT is ShortestPathTo pruned by ALT (A*, landmarks,
// triangle inequality) lower bounds: the landmark tables supply a
// consistent potential that steers the search toward dst and lets it
// stop after settling a fraction of the vertices the plain early-exit
// search would. The landmarks must have been built on a lower bound of
// weight (see BuildLandmarks); under that contract the answer is
// bit-identical to ShortestPathTo. The number of vertices the run
// touched is readable afterwards via Touched.
func (s *Scratch) ShortestPathToALT(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks) ([]int, float64, bool) {
	if lm == nil || lm.K() == 0 {
		return s.ShortestPathTo(g, src, dst, weight)
	}
	return s.shortestPathToPot(g, src, dst, weight, lm.potential(int32(dst)))
}

// Touched reports how many vertices the scratch's last run reached —
// the work profile the oracle metrics aggregate.
func (s *Scratch) Touched() int { return len(s.order) }

// BottleneckPathTo is the KindBottleneck form of ShortestPathTo: the
// canonical minimax path from src to dst, its bottleneck value, and
// whether dst is reachable, bit-identical to s.Bottleneck(...) followed
// by Tree.PathTo(dst) / Tree.Dist[dst]. The leximax key lets it exit
// even earlier than the additive search: every relaxation candidate's
// key strictly exceeds its predecessor's (appending an edge grows the
// key), so every predecessor on dst's path — and every tie the
// canonical tree resolves — is settled before dst itself pops, and the
// search stops at that pop outright.
func (s *Scratch) BottleneckPathTo(g *graph.Graph, src, dst int, weight WeightFunc) ([]int, float64, bool) {
	n := g.NumVertices()
	s.reset(n)
	s.lex = true
	s.touch(int32(src))
	s.dist[src] = math.Inf(-1)
	s.keys[src] = s.keys[src][:0]
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	csr := g.Frozen()
	for len(s.heap) > 0 {
		v := s.pop()
		if int(v) == dst {
			return s.pathOut(src, dst), s.dist[v], true
		}
		if csr != nil {
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relaxMax(v, csr.EdgeID[k], csr.Head[k], weight)
			}
		} else {
			for _, a := range g.OutArcs(int(v)) {
				s.relaxMax(v, int32(a.Edge), int32(a.To), weight)
			}
		}
	}
	return nil, math.Inf(1), false
}

// relaxMaxA is relaxMax for minimax A* runs: identical candidate-key
// construction and tie-breaks, plus maintenance of the fsc heap key
// fsc[v] = max(dist[v], pi[v]) and one potential evaluation on first
// touch.
func (s *Scratch) relaxMaxA(v, e, to int32, weight WeightFunc, pot func(int32) float64) {
	w := weight(int(e))
	if math.IsInf(w, 1) {
		return
	}
	nd := math.Max(s.dist[v], w)
	if s.stamp[to] == s.gen && nd > s.dist[to] {
		return // scalar screen: candidate max already worse
	}
	kv := s.keys[v]
	s.cand = s.cand[:0]
	inserted := false
	for _, x := range kv {
		if !inserted && w > x {
			s.cand = append(s.cand, w)
			inserted = true
		}
		s.cand = append(s.cand, x)
	}
	if !inserted {
		s.cand = append(s.cand, w)
	}
	if s.stamp[to] != s.gen {
		s.touch(to)
		s.dist[to] = nd
		s.pi[to] = pot(to)
		s.fsc[to] = math.Max(nd, s.pi[to])
		s.keys[to] = append(s.keys[to][:0], s.cand...)
		s.prevE[to], s.prevV[to] = e, v
		s.push(to)
		return
	}
	switch {
	case nd < s.dist[to] || lexLess(s.cand, s.keys[to]):
		s.dist[to] = nd
		s.fsc[to] = math.Max(nd, s.pi[to])
		s.keys[to] = append(s.keys[to][:0], s.cand...)
		s.prevE[to], s.prevV[to] = e, v
		s.decrease(to)
	case e > s.prevE[to] && lexEqual(s.cand, s.keys[to]):
		s.prevE[to], s.prevV[to] = e, v
	}
}

// bottleneckPathToPot is BottleneckPathTo guided by a minimax
// potential: the search orders the heap by f(v) = max(dist[v], pot(v)),
// ties broken by dist then by the full leximax key. pot must be
// consistent under the minimax composition (pot(u) <= max(w(u->v),
// pot(v)) on every arc) and admissible (pot(u) <= the true remaining
// bottleneck value to dst); the landmark tables supply exactly that.
// Unlike the additive A* no float slack is needed — max() never
// synthesizes new float values, so f-keys compare exactly — and the
// search still exits the moment dst pops: f is non-decreasing and the
// leximax key strictly increasing along the canonical path, so every
// predecessor and every tie-supplying relaxation source of the path
// orders strictly before dst under (f, dist, key) and has been settled.
// The answer is bit-identical to BottleneckPathTo.
func (s *Scratch) bottleneckPathToPot(g *graph.Graph, src, dst int, weight WeightFunc, pot func(int32) float64) ([]int, float64, bool) {
	n := g.NumVertices()
	s.reset(n)
	s.lex = true
	s.astar = true
	s.touch(int32(src))
	s.dist[src] = math.Inf(-1)
	s.pi[src] = pot(int32(src))
	s.fsc[src] = s.pi[src]
	s.keys[src] = s.keys[src][:0]
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(int32(src))
	csr := g.Frozen()
	for len(s.heap) > 0 {
		v := s.pop()
		if int(v) == dst {
			return s.pathOut(src, dst), s.dist[v], true
		}
		if csr != nil {
			for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
				s.relaxMaxA(v, csr.EdgeID[k], csr.Head[k], weight, pot)
			}
		} else {
			for _, a := range g.OutArcs(int(v)) {
				s.relaxMaxA(v, int32(a.Edge), int32(a.To), weight, pot)
			}
		}
	}
	return nil, math.Inf(1), false
}

// BottleneckPathToALT is BottleneckPathTo pruned by landmark-derived
// minimax lower bounds: the bottleneck tables (Landmarks.WithBottleneck)
// supply a consistent minimax potential that steers the leximax search
// toward dst. The landmarks must have been built on a lower bound of
// weight; under that contract the answer — path, value, and every
// canonical tie-break — is bit-identical to BottleneckPathTo. Falls
// back to the plain search when lm is nil or lacks the minimax tables.
func (s *Scratch) BottleneckPathToALT(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks) ([]int, float64, bool) {
	if lm == nil || lm.K() == 0 || !lm.HasBottleneck() {
		return s.BottleneckPathTo(g, src, dst, weight)
	}
	return s.bottleneckPathToPot(g, src, dst, weight, lm.bottleneckPotential(int32(dst)))
}

// pathOut materializes the settled prev chain from src to dst as edge
// IDs in path order.
func (s *Scratch) pathOut(src, dst int) []int {
	var rev []int
	for v := dst; v != src; v = int(s.prevV[v]) {
		rev = append(rev, int(s.prevE[v]))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// fill materializes the run into a Tree, reusing t's slices when
// possible.
func (s *Scratch) fill(t *Tree, src, n int) *Tree {
	if t == nil {
		t = &Tree{}
	}
	t.Source = src
	t.Dist = resizeF64(t.Dist, n)
	t.PrevEdge = resizeInt(t.PrevEdge, n)
	t.PrevVert = resizeInt(t.PrevVert, n)
	inf := math.Inf(1)
	for v := 0; v < n; v++ {
		t.Dist[v] = inf
		t.PrevEdge[v] = -1
		t.PrevVert[v] = -1
	}
	for _, v := range s.order {
		t.Dist[v] = s.dist[v]
		t.PrevEdge[v] = int(s.prevE[v])
		t.PrevVert[v] = int(s.prevV[v])
	}
	return t
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// push inserts v (whose priority is dist[v]) into the heap.
func (s *Scratch) push(v int32) {
	s.heap = append(s.heap, v)
	s.pos[v] = int32(len(s.heap) - 1)
	s.up(len(s.heap) - 1)
}

// decrease restores heap order after dist[v] dropped; a finalized
// vertex (possible only with ill-formed negative weights) is re-opened.
func (s *Scratch) decrease(v int32) {
	if i := s.pos[v]; i >= 0 {
		s.up(int(i))
	} else {
		s.push(v)
	}
}

// pop removes and returns the vertex with minimum dist.
func (s *Scratch) pop() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.pos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.pos[top] = -1
	if last > 0 {
		s.down(0)
	}
	return top
}

// less orders heap entries: by dist, refined by the full leximax keys
// in bottleneck runs (additive runs never read s.keys), or by the
// potential-adjusted fsc key in A* runs (ties fall back to dist so
// nearer vertices settle first; in additive A* any tie order is
// correct — A* with a consistent potential is label-setting regardless
// — but minimax A* runs both astar and lex, and there the final lex
// fall-through is load-bearing: it guarantees every strictly
// lex-smaller label on the canonical path settles before dst pops, so
// the early exit keeps the leximax tie-breaks bit-identical).
func (s *Scratch) less(a, b int32) bool {
	if s.astar {
		fa, fb := s.fsc[a], s.fsc[b]
		if fa != fb {
			return fa < fb
		}
		da, db := s.dist[a], s.dist[b]
		if da != db {
			return da < db
		}
		return s.lex && lexLess(s.keys[a], s.keys[b])
	}
	da, db := s.dist[a], s.dist[b]
	if da != db {
		return da < db
	}
	return s.lex && lexLess(s.keys[a], s.keys[b])
}

func (s *Scratch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scratch) down(i int) {
	for {
		first := 4*i + 1
		if first >= len(s.heap) {
			return
		}
		small := i
		end := first + 4
		if end > len(s.heap) {
			end = len(s.heap)
		}
		for c := first; c < end; c++ {
			if s.less(s.heap[c], s.heap[small]) {
				small = c
			}
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}

func (s *Scratch) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

// Pool is a free list of Scratches for concurrent shortest-path
// workers: each worker Gets a scratch, runs any number of searches, and
// Puts it back. The zero value is ready to use; a single Pool may be
// shared by many solves (e.g. one per engine).
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a scratch sized for at least n vertices.
func (p *Pool) Get(n int) *Scratch {
	if s, ok := p.p.Get().(*Scratch); ok {
		s.grow(n)
		return s
	}
	return NewScratch(n)
}

// Put returns a scratch to the pool.
func (p *Pool) Put(s *Scratch) {
	if s != nil {
		p.p.Put(s)
	}
}

// defaultPool backs the package-level Dijkstra convenience entry point.
var defaultPool = NewPool()
