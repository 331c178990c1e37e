package core_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"truthfulufp/internal/core"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/workload"
)

// streamThrough replays an instance's requests through a fresh
// AdmissionState, building the Allocation the way OnlineAdmission does.
func streamThrough(t *testing.T, inst *core.Instance, eps float64, opt *core.Options) *core.Allocation {
	t.Helper()
	st, err := core.NewAdmissionState(inst.G, eps, opt)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}
	alloc := &core.Allocation{DualBound: math.Inf(1)}
	for i, r := range inst.Requests {
		d, err := st.Admit(r)
		if err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
		if d.Admitted {
			alloc.Routed = append(alloc.Routed, core.Routed{Request: i, Path: d.Path})
			alloc.Value += r.Value
			alloc.Iterations++
		}
	}
	alloc.Stop = core.StopAllSatisfied
	if len(alloc.Routed) < len(inst.Requests) {
		alloc.Stop = core.StopNoRoutablePath
	}
	return alloc
}

// Streamed admits must be identical — paths, order, diagnostics — to
// the batch spelling, with and without the incremental cache.
func TestOnlineStreamMatchesBatch(t *testing.T) {
	cfg := workload.DefaultUFPConfig()
	cfg.Requests = 60
	for seed := uint64(1); seed <= 5; seed++ {
		inst := randomInstance(t, seed+300, cfg)
		batch := mustSolve(t, func() (*core.Allocation, error) {
			return core.OnlineAdmission(inst, 0.3, nil)
		})
		checkFeasible(t, inst, batch, false)
		streamed := streamThrough(t, inst, 0.3, nil)
		if !reflect.DeepEqual(batch, streamed) {
			t.Fatalf("seed %d: streamed admits differ from batch OnlineAdmission", seed)
		}
		noInc := mustSolve(t, func() (*core.Allocation, error) {
			return core.OnlineAdmission(inst, 0.3, &core.Options{NoIncremental: true})
		})
		if !reflect.DeepEqual(batch, noInc) {
			t.Fatalf("seed %d: NoIncremental changes the online allocation", seed)
		}
	}
}

// Until an edge saturates, the online rule and the sequential baseline
// see identical weights (the baseline's residual filter never fires on
// an uncontended instance), so they must agree request for request.
func TestOnlineMatchesSequentialUncontended(t *testing.T) {
	cfg := workload.DefaultUFPConfig()
	cfg.B = 500 // capacity far above total demand: no edge ever saturates
	cfg.ValueMin, cfg.ValueMax = 0.1, 3.0
	for seed := uint64(1); seed <= 3; seed++ {
		inst := randomInstance(t, seed+40, cfg)
		online := mustSolve(t, func() (*core.Allocation, error) {
			return core.OnlineAdmission(inst, 0.2, nil)
		})
		seq := mustSolve(t, func() (*core.Allocation, error) {
			return core.SequentialPrimalDual(inst, 0.2, nil)
		})
		if !equalInts(requestSeq(online), requestSeq(seq)) {
			t.Fatalf("seed %d: online %v != sequential %v on uncontended instance",
				seed, requestSeq(online), requestSeq(seq))
		}
	}
}

func TestAdmitRejectReasons(t *testing.T) {
	// Two components: 0->1 has an edge, 2<->3 has one (so B covers it),
	// but 0->2 has no path.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	st, err := core.NewAdmissionState(g, 0.5, nil)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}

	if d, err := st.Admit(core.Request{Source: 0, Target: 2, Demand: 0.5, Value: 10}); err != nil || d.Admitted || d.Reason != core.RejectNoPath {
		t.Fatalf("disconnected admit = %+v, %v; want no-path reject", d, err)
	}
	// Initial price on 0->1 is y = 1/c = 1, so demand 0.5 quotes 0.5.
	if d, err := st.Admit(core.Request{Source: 0, Target: 1, Demand: 0.5, Value: 0.4}); err != nil || d.Admitted || d.Reason != core.RejectPrice {
		t.Fatalf("undervalued admit = %+v, %v; want price reject", d, err)
	}
	d1, err := st.Admit(core.Request{Source: 0, Target: 1, Demand: 1, Value: 100})
	if err != nil || !d1.Admitted || d1.ID == 0 {
		t.Fatalf("first admit = %+v, %v; want admitted with id", d1, err)
	}
	if d1.Price != 1 {
		t.Fatalf("first admit price = %g, want 1 (initial y = 1/c)", d1.Price)
	}
	// The edge is now full: demand 1 cannot fit regardless of value.
	if d, err := st.Admit(core.Request{Source: 0, Target: 1, Demand: 1, Value: 1e6}); err != nil || d.Admitted || d.Reason != core.RejectCapacity {
		t.Fatalf("overfull admit = %+v, %v; want capacity reject", d, err)
	}
	if st.NumAdmitted() != 1 || st.Value() != 100 {
		t.Fatalf("ledger = %d entries value %g, want 1 entry value 100", st.NumAdmitted(), st.Value())
	}

	// Release returns the capacity; a new admit fits again (at the
	// raised price, which is never reversed).
	rel, err := st.Release(d1.ID)
	if err != nil || rel.ID != d1.ID {
		t.Fatalf("Release = %+v, %v", rel, err)
	}
	if _, err := st.Release(d1.ID); err == nil {
		t.Fatal("double Release succeeded")
	}
	d2, err := st.Admit(core.Request{Source: 0, Target: 1, Demand: 1, Value: 1e6})
	if err != nil || !d2.Admitted {
		t.Fatalf("post-release admit = %+v, %v; want admitted", d2, err)
	}
	if d2.Price <= d1.Price {
		t.Fatalf("post-release price %g <= original %g; release must not lower prices", d2.Price, d1.Price)
	}
	if d2.ID == d1.ID {
		t.Fatalf("admission ids reused: %d", d2.ID)
	}
}

func TestQuoteDoesNotMutate(t *testing.T) {
	inst := diamondInstance(2, [2]float64{1, 50}, [2]float64{1, 50})
	st, err := core.NewAdmissionState(inst.G, 0.5, nil)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}
	q1, err := st.Quote(inst.Requests[0])
	if err != nil || !q1.Admitted {
		t.Fatalf("Quote = %+v, %v; want would-admit", q1, err)
	}
	q2, err := st.Quote(inst.Requests[0])
	if err != nil || q2.Price != q1.Price {
		t.Fatalf("repeated Quote price %g != %g (quote mutated state?)", q2.Price, q1.Price)
	}
	a, err := st.Admit(inst.Requests[0])
	if err != nil || !a.Admitted || a.Price != q1.Price {
		t.Fatalf("Admit after Quote = %+v, %v; want admitted at quoted price %g", a, err, q1.Price)
	}
	if q3, _ := st.Quote(inst.Requests[1]); q3.Price <= q1.Price && len(q3.Path) == len(a.Path) && q3.Path[0] == a.Path[0] {
		// Same path quoted again must now be pricier; a disjoint diamond
		// path at the base price is also fine.
		t.Fatalf("post-admit quote on same path did not rise: %+v vs %+v", q3, a)
	}
	if st.NumAdmitted() != 1 {
		t.Fatalf("NumAdmitted = %d, want 1", st.NumAdmitted())
	}
}

func TestOnlineLedgerAndStats(t *testing.T) {
	inst := diamondInstance(4, [2]float64{1, 50}, [2]float64{1, 50}, [2]float64{1, 50})
	st, err := core.NewAdmissionState(inst.G, 0.25, nil)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}
	var ids []int64
	for _, r := range inst.Requests {
		d, err := st.Admit(r)
		if err != nil || !d.Admitted {
			t.Fatalf("Admit = %+v, %v", d, err)
		}
		ids = append(ids, d.ID)
	}
	led := st.Ledger()
	if len(led) != 3 {
		t.Fatalf("Ledger has %d entries, want 3", len(led))
	}
	for i, a := range led {
		if a.ID != ids[i] {
			t.Fatalf("Ledger[%d].ID = %d, want %d (ascending id order)", i, a.ID, ids[i])
		}
	}
	if _, err := st.Release(ids[1]); err != nil {
		t.Fatalf("Release: %v", err)
	}
	led = st.Ledger()
	if len(led) != 2 || led[0].ID != ids[0] || led[1].ID != ids[2] {
		t.Fatalf("Ledger after release = %v, want ids %d,%d", led, ids[0], ids[2])
	}
	if ds := st.DualSum(); !(ds > 4) || math.IsInf(ds, 1) {
		// 4 edges at c·y = 1 initially; admissions only grow it.
		t.Fatalf("DualSum = %g, want finite > 4", ds)
	}
	rec, reu := st.PathStats()
	if rec+reu == 0 {
		t.Fatal("PathStats counted no queries")
	}
}

func TestOnlineValidation(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 2)
	if _, err := core.NewAdmissionState(nil, 0.5, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := core.NewAdmissionState(g, 0, nil); err == nil {
		t.Fatal("eps = 0 accepted")
	}
	small := graph.New(2)
	small.AddEdge(0, 1, 0.5)
	if _, err := core.NewAdmissionState(small, 0.5, nil); err == nil {
		t.Fatal("B < 1 accepted")
	}
	st, err := core.NewAdmissionState(g, 0.5, nil)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}
	bad := []core.Request{
		{Source: 0, Target: 5, Demand: 0.5, Value: 1},  // target out of range
		{Source: 1, Target: 1, Demand: 0.5, Value: 1},  // source == target
		{Source: 0, Target: 1, Demand: 1.5, Value: 1},  // demand > 1
		{Source: 0, Target: 1, Demand: 0.5, Value: -1}, // negative value
	}
	for i, r := range bad {
		if _, err := st.Admit(r); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
	if st.NumAdmitted() != 0 {
		t.Fatalf("invalid requests left %d ledger entries", st.NumAdmitted())
	}
}

func TestOnlineAdmissionCtxCancel(t *testing.T) {
	cfg := workload.DefaultUFPConfig()
	inst := randomInstance(t, 11, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.OnlineAdmissionCtx(ctx, inst, 0.3, nil); err == nil {
		t.Fatal("cancelled context did not abort OnlineAdmissionCtx")
	}
}

// TestAdmissionLandmarksNeverRebuildUnderMonotonePrices: landmark
// tables auto-built from the initial prices lower-bound every later
// price, so a long admit stream keeps them as built. On a 64-vertex
// directed path every admit is an oracle search that prunes nothing,
// the regime where a prune-ratio trigger would rebuild for no gain.
func TestAdmissionLandmarksNeverRebuildUnderMonotonePrices(t *testing.T) {
	const n = 64
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, 30)
	}
	st, err := core.NewAdmissionState(g, 0.25, nil)
	if err != nil {
		t.Fatalf("NewAdmissionState: %v", err)
	}
	for i := 0; i < 40; i++ {
		d, err := st.Admit(core.Request{Source: 0, Target: n - 1, Demand: 0.01, Value: 1e6})
		if err != nil || !d.Admitted {
			t.Fatalf("admit %d = %+v, %v; want admitted", i, d, err)
		}
	}
	cs := st.CacheStats()
	if cs.AltSearches == 0 {
		t.Fatalf("landmarks were not auto-built on a %d-vertex network: %+v", n, cs)
	}
	if cs.LandmarkRebuilds != 0 || cs.LandmarkViolations != 0 {
		t.Fatalf("monotone prices must never rebuild or violate the tables: %+v", cs)
	}
}
