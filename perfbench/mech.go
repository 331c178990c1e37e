package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/scenario"
)

// The mechanism workload: one closed-loop client posts the truthful
// UFP mechanism (Bounded-UFP plus critical-value payments) on the
// fattree scenarios of seeds 1-4 in cycles, with the result cache
// bypassed. Bisection in internal/mechanism over core.BoundedUFP does
// almost all the work; sessions are not involved. The instances are
// fixed and the workload seed orders each cycle, so every run solves
// the same multiset and the spread across runs is the machine's.
const (
	mechInstances = 4
	mechEps       = 0.25
	// mechSLOMs is the mechanism's latency limit: about twice the
	// slowest solve measured on a 2-core Xeon. Against solves of about
	// 1.4-1.6 s it catches only gross stalls; a limit near the solve time
	// would flip whole solves in or out over a dozen samples per run.
	mechSLOMs = 5000
)

type mech struct {
	seed   uint64
	rng    *rand.Rand
	insts  []*core.Instance
	bodies [][]byte
	conn   *conn
}

// mechOp is one solve as sent and answered.
type mechOp struct {
	inst int
	res  result
	out  *truthfulufp.UFPOutcome
}

type mechDetail struct {
	ops []mechOp
	// filled by a traced check
	allocMs, paymentMs, probeMs []float64
	probes, payments            int
}

func (w *mech) flags() []string { return []string{"-shards", "1"} }

// setUp generates the instances; there are no sessions to register.
func (w *mech) setUp(s *server) error {
	w.insts, w.bodies = nil, nil
	w.rng = rand.New(rand.NewPCG(w.seed, 0))
	for k := range mechInstances {
		inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Seed: uint64(k) + 1})
		if err != nil {
			return err
		}
		data, err := truthfulufp.MarshalInstance(inst)
		if err != nil {
			return err
		}
		if data, err = compactJSON(data); err != nil {
			return err
		}
		w.insts = append(w.insts, inst)
		w.bodies = append(w.bodies, []byte(`{"algorithm":"ufp/mechanism","noCache":true,"eps":0.25,"instance":`+string(data)+`}`))
	}
	if w.conn != nil {
		w.conn.close() // the previous set-up's server is gone
	}
	w.conn = s.dial()
	return nil
}

func (w *mech) measure(s *server, window time.Duration, rec *recorder) (*pass, error) {
	p := newPass(mechSLOMs)
	before, err := w.conn.scrape()
	if err != nil {
		return nil, err
	}
	defer w.conn.close()
	d := &mechDetail{}
	start := time.Now()
	// The server's CPU time of each solve, by instance.
	cpuMs := make([][]float64, mechInstances)
	// Whole cycles only, each in a seeded order, until the window has
	// passed: every instance is solved equally often.
	var cycle []int
	for len(cycle) > 0 || time.Since(start) < window {
		if len(cycle) == 0 {
			cycle = w.rng.Perm(mechInstances)
		}
		op := mechOp{inst: cycle[0]}
		cycle = cycle[1:]
		cpu0, err := s.cpuTime()
		if err != nil {
			return nil, err
		}
		op.res = w.conn.post("/v1/solve", w.bodies[op.inst])
		cpu1, err := s.cpuTime()
		if err != nil {
			return nil, err
		}
		if op.res.ok() {
			cpuMs[op.inst] = append(cpuMs[op.inst], ms(cpu1-cpu0))
		}
		elapsed := -1.0
		if op.res.ok() {
			var resp struct {
				Outcome   json.RawMessage `json:"outcome"`
				CacheHit  bool            `json:"cacheHit"`
				ElapsedMs *float64        `json:"elapsedMs"`
			}
			if err := json.Unmarshal(op.res.body, &resp); err != nil || resp.ElapsedMs == nil {
				return nil, fmt.Errorf("decoding a solve answer: %v", err)
			}
			if op.out, err = truthfulufp.UnmarshalUFPOutcome(resp.Outcome); err != nil {
				return nil, err
			}
			elapsed = *resp.ElapsedMs
		}
		p.op("solve", op.res.sent.Sub(start), op.res.wallMs(), op.res.ok(), len(op.res.body))
		rec.httpOp("solve", op.res, "engine.solve", elapsed)
		op.res.body = nil
		d.ops = append(d.ops, op)
	}
	p.span = time.Since(start)
	p.cpuPerOpMs = instanceMean(cpuMs)
	if p.after, err = w.conn.scrape(); err != nil {
		return nil, err
	}
	p.before, p.detail = before, d
	return p, nil
}

// instanceMean is the mean over instances of each instance's median
// CPU time per solve. The instances differ in cost, so a pooled median
// would jump between them; a per-instance median leaves out the solves
// a bump in the host's speed slowed, while they are fewer than half of
// that instance's. It is 0 if any instance had no successful solve.
func instanceMean(byInst [][]float64) float64 {
	total := 0.0
	for _, xs := range byInst {
		if len(xs) == 0 {
			return 0
		}
		total += median(append([]float64(nil), xs...))
	}
	return total / float64(len(byInst))
}

// check holds every answer to the paper's contract: the allocation is
// the in-process core.BoundedUFP result at the same ε, every winner
// pays within (0, bid], losers pay nothing, and repeats of an instance
// answer bit-identically. A traced pass also recomputes the payments
// in-process and compares their bits.
func (w *mech) check(p *pass, rec *recorder) error {
	d := p.detail.(*mechDetail)
	first := make([]*truthfulufp.UFPOutcome, mechInstances)
	for i, op := range d.ops {
		if op.out == nil {
			continue
		}
		inst := w.insts[op.inst]
		if first[op.inst] == nil {
			want, err := core.BoundedUFP(inst, mechEps, nil)
			if err != nil {
				return err
			}
			if err := sameAllocation(op.out.Allocation, want); err != nil {
				return fmt.Errorf("solve %d (instance %d): %w", i, op.inst, err)
			}
			if err := paymentsInRange(op.out, inst); err != nil {
				return fmt.Errorf("solve %d (instance %d): %w", i, op.inst, err)
			}
			first[op.inst] = op.out
			continue
		}
		if err := samePayments(op.out.Payments, first[op.inst].Payments); err != nil {
			return fmt.Errorf("solve %d repeats instance %d differently: %w", i, op.inst, err)
		}
	}
	if rec == nil {
		return nil
	}
	for k, out := range first {
		if out == nil {
			continue
		}
		want, err := tracedMechanism(w.insts[k], rec, d)
		if err != nil {
			return err
		}
		if err := samePayments(out.Payments, want.Payments); err != nil {
			return fmt.Errorf("instance %d: server payments differ from the in-process run: %w", k, err)
		}
	}
	return nil
}

func sameAllocation(got, want *core.Allocation) error {
	if len(got.Routed) != len(want.Routed) || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		return fmt.Errorf("allocation routes %d for value %v, in-process %d for %v", len(got.Routed), got.Value, len(want.Routed), want.Value)
	}
	for i := range got.Routed {
		if got.Routed[i].Request != want.Routed[i].Request || !slices.Equal(got.Routed[i].Path, want.Routed[i].Path) {
			return fmt.Errorf("routed[%d] = %+v, in-process %+v", i, got.Routed[i], want.Routed[i])
		}
	}
	return nil
}

func paymentsInRange(out *truthfulufp.UFPOutcome, inst *core.Instance) error {
	if len(out.Payments) != len(out.Allocation.Routed) {
		return fmt.Errorf("%d payments for %d winners", len(out.Payments), len(out.Allocation.Routed))
	}
	for _, r := range out.Allocation.Routed {
		pay, ok := out.Payments[r.Request]
		if bid := inst.Requests[r.Request].Value; !ok || !(pay > 0 && pay <= bid) {
			return fmt.Errorf("winner %d pays %v outside (0, %v]", r.Request, pay, bid)
		}
	}
	return nil
}

func samePayments(got, want map[int]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d payments, expected %d", len(got), len(want))
	}
	for r, pay := range want {
		if math.Float64bits(got[r]) != math.Float64bits(pay) {
			return fmt.Errorf("request %d pays %v, expected %v", r, got[r], pay)
		}
	}
	return nil
}

// tracedMechanism reruns the mechanism in-process the way the ufp/
// mechanism solver does (RunUFPMechanismCtx over BoundedUFPAlgCtx),
// with spans around the allocation, each winner's UFPCriticalValue and
// each bisection probe inside it.
func tracedMechanism(inst *core.Instance, rec *recorder, d *mechDetail) (*truthfulufp.UFPOutcome, error) {
	base := mechanism.BoundedUFPAlgCtx(context.Background(), mechEps, &core.Options{Workers: 1})
	var probes [][2]time.Time
	alg := func(in *core.Instance) (*core.Allocation, error) {
		t0 := time.Now()
		a, err := base(in)
		probes = append(probes, [2]time.Time{t0, time.Now()})
		return a, err
	}
	type payment struct {
		start, end time.Time
		probes     [][2]time.Time
	}
	t0 := time.Now()
	a, err := alg(inst)
	if err != nil {
		return nil, err
	}
	alloc := probes[0]
	var pays []payment
	out := &truthfulufp.UFPOutcome{Allocation: a, Payments: map[int]float64{}}
	for _, r := range a.Routed {
		probes = nil
		t := time.Now()
		pay, err := mechanism.UFPCriticalValue(alg, inst, r.Request)
		if err != nil {
			return nil, err
		}
		pays = append(pays, payment{t, time.Now(), probes})
		out.Payments[r.Request] = pay
	}
	root := rec.add(0, 0, "mechanism.run", t0, time.Now())
	rec.add(root, root, "core.allocation", alloc[0], alloc[1])
	d.allocMs = append(d.allocMs, ms(alloc[1].Sub(alloc[0])))
	for _, pay := range pays {
		id := rec.add(root, root, "mechanism.payment", pay.start, pay.end)
		d.paymentMs = append(d.paymentMs, ms(pay.end.Sub(pay.start)))
		for _, pr := range pay.probes {
			rec.add(root, id, "mechanism.probe", pr[0], pr[1])
			d.probeMs = append(d.probeMs, ms(pr[1].Sub(pr[0])))
		}
		d.probes += len(pay.probes)
		d.payments++
	}
	return out, nil
}

func (w *mech) layers(p *pass, rec *recorder, m map[string]float64) error {
	d := p.detail.(*mechDetail)
	httpLayers(p, rec, m, "solve")
	setMedian(m, "engine.solve_ms_p50", rec.durations("engine.solve"))
	setMedian(m, "engine.queue_wait_ms_p50", rec.selfTimes("ufpserve.app", "http.solve"))
	setMedian(m, "core.allocation_ms", d.allocMs)
	if d.payments > 0 {
		m["mechanism.probes_per_payment"] = float64(d.probes) / float64(d.payments)
	}
	setMedian(m, "mechanism.probe_ms_p50", d.probeMs)
	setMedian(m, "mechanism.payment_ms_p50", d.paymentMs)
	return nil
}
