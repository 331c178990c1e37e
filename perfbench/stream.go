package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/scenario"
)

// The admit stream: one closed-loop client streams admits of one
// waxman scenario into a few long-lived sessions on a one-shard server.
// The network is far above the auto-landmark threshold, so every admit
// is an ALT oracle search and the path layers do most of the work.
const (
	streamVertices = 1000
	// streamScenarioSeed fixes the network (85 722 edges) and its
	// request pool; the workload seed orders each session's stream, so
	// runs differ in the admission sequences, not in the graph.
	streamScenarioSeed = 1
	streamSessions     = 8
	streamEps          = 0.25
	// streamSLOMs is the stream's latency limit: a landmark rebuild
	// (about 20 ms on a 2-core Xeon) misses it, an ordinary admit does
	// not.
	streamSLOMs = 5
	// streamMinOps keeps a window going until its p99.9 has ten
	// samples beyond it, whatever the machine's admit rate.
	streamMinOps = 10000
	// streamCPUBlock is the size of the blocks of admits whose server
	// CPU time the stream reads: the first streamMinOps admits, which
	// every run sends whatever the machine's speed, in blocks of this
	// many.
	streamCPUBlock = 500
)

type stream struct {
	seed    uint64
	inst    *core.Instance
	network []byte   // registration body
	order   [][]int  // per session: request indices in streaming order
	ids     []string // per session: the server's session id
	regMs   []float64
	conn    *conn
}

// streamOp is one admit as sent and answered.
type streamOp struct {
	sess, req int
	res       result
	dec       decision
}

func (w *stream) flags() []string { return []string{"-shards", "1"} }

func (w *stream) setUp(s *server) error {
	inst, err := scenario.Generate(scenario.Config{Topology: "waxman", Size: streamVertices, Seed: streamScenarioSeed})
	if err != nil {
		return err
	}
	net, err := truthfulufp.MarshalNetwork(inst.G)
	if err != nil {
		return err
	}
	if net, err = compactJSON(net); err != nil {
		return err
	}
	w.inst = inst
	w.network = []byte(`{"eps":` + strconv.FormatFloat(streamEps, 'g', -1, 64) + `,"network":` + string(net) + `}`)
	w.order = make([][]int, streamSessions)
	for i := range w.order {
		rng := rand.New(rand.NewPCG(w.seed, uint64(i)))
		w.order[i] = rng.Perm(len(inst.Requests))
	}
	if w.conn != nil {
		w.conn.close() // the previous set-up's server is gone
	}
	w.conn = s.dial()
	w.ids, w.regMs = nil, nil
	for range streamSessions {
		id, res, err := register(w.conn, w.network)
		if err != nil {
			return err
		}
		w.ids = append(w.ids, id)
		w.regMs = append(w.regMs, res.wallMs())
	}
	return nil
}

// register posts one network and returns the new session's id.
func register(c *conn, body []byte) (string, result, error) {
	res := c.post("/v1/networks", body)
	if res.status != http.StatusCreated {
		return "", res, fmt.Errorf("registering a network: status %d: %s", res.status, res.body)
	}
	var out struct {
		Network struct {
			ID string `json:"id"`
		} `json:"network"`
	}
	if err := json.Unmarshal(res.body, &out); err != nil || out.Network.ID == "" {
		return "", res, fmt.Errorf("registering a network: bad answer %q", res.body)
	}
	return out.Network.ID, res, nil
}

func requestBody(r core.Request) []byte {
	b := make([]byte, 0, 96)
	b = append(b, `{"source":`...)
	b = strconv.AppendInt(b, int64(r.Source), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(r.Target), 10)
	b = append(b, `,"demand":`...)
	b = strconv.AppendFloat(b, r.Demand, 'g', -1, 64)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
	return append(b, '}')
}

func (w *stream) measure(s *server, window time.Duration, rec *recorder) (*pass, error) {
	p := newPass(streamSLOMs)
	before, err := w.conn.scrape()
	if err != nil {
		return nil, err
	}
	var ops []streamOp
	start := time.Now()
	deadline := start.Add(window)
	defer w.conn.close()
	var blockCPU []time.Duration
	for i := 0; i < streamMinOps || time.Now().Before(deadline); i++ {
		if i%streamCPUBlock == 0 && i <= streamMinOps {
			cpu, err := s.cpuTime()
			if err != nil {
				return nil, err
			}
			blockCPU = append(blockCPU, cpu)
		}
		if i == streamMinOps {
			// The heap grows with every admission held, so the peak is
			// read after the same admits in every run.
			if p.rssMB, err = s.peakRSSMB(); err != nil {
				return nil, err
			}
		}
		sess, k := i%streamSessions, i/streamSessions
		if k >= len(w.order[sess]) {
			break
		}
		op := streamOp{sess: sess, req: w.order[sess][k]}
		op.res = w.conn.post("/v1/networks/"+w.ids[sess]+"/admit", requestBody(w.inst.Requests[op.req]))
		ok := op.res.ok()
		elapsed := -1.0
		if ok {
			if op.dec, err = parseDecision(op.res.body); err != nil {
				return nil, err
			}
			elapsed = *op.dec.ElapsedMs
		}
		p.op("admit", op.res.sent.Sub(start), op.res.wallMs(), ok, len(op.res.body))
		rec.httpOp("admit", op.res, "session.op", elapsed)
		op.res.body = nil
		ops = append(ops, op)
	}
	p.span = time.Since(start)
	if len(ops) == streamMinOps {
		// The window closed on the last admit of the last block.
		cpu, err := s.cpuTime()
		if err != nil {
			return nil, err
		}
		blockCPU = append(blockCPU, cpu)
	}
	p.cpuPerOpMs = blockMedian(blockCPU, p.okAt)
	after, err := w.conn.scrape()
	if err != nil {
		return nil, err
	}
	p.before, p.after = before, after
	p.detail = &streamDetail{ops: ops}
	return p, nil
}

// blockMedian is the median, over the blocks of streamCPUBlock ops
// that cpu brackets, of each block's server CPU time per successful op.
// An admit's cost changes along the stream as prices rise, so the
// blocks are the same admits in every run, not the window's seconds: a
// slower machine would fit fewer, and earlier, admits into a second.
// The median leaves out the blocks a bump in the host's speed slowed,
// while they are fewer than half. It is 0 without a complete block.
func blockMedian(cpu []time.Duration, okAt []bool) float64 {
	var rates []float64
	for b := 1; b < len(cpu); b++ {
		n := 0
		for _, ok := range okAt[(b-1)*streamCPUBlock : b*streamCPUBlock] {
			if ok {
				n++
			}
		}
		if n > 0 {
			rates = append(rates, ms(cpu[b]-cpu[b-1])/float64(n))
		}
	}
	return median(rates)
}

type streamDetail struct {
	ops []streamOp
	// filled by a traced check: per-admit in-process timings
	quoteMs, admitMs, rebuildAdmitMs []float64
}

// newReplayState builds the in-process twin of a server session: the
// same network decoded from the same bytes, and the options
// session.Manager.Register passes.
func newReplayState(network []byte, eps float64) (*core.AdmissionState, error) {
	var body struct {
		Network json.RawMessage `json:"network"`
	}
	if err := json.Unmarshal(network, &body); err != nil {
		return nil, err
	}
	g, err := truthfulufp.UnmarshalNetwork(body.Network)
	if err != nil {
		return nil, err
	}
	return core.NewAdmissionState(g, eps, &core.Options{LandmarkRegistry: pathfind.SharedLandmarks})
}

// sameDecision compares a server answer with the in-process decision
// bit for bit: admitted flag, ledger id, reason, price and path.
func sameDecision(got decision, want core.Decision) error {
	price := math.Inf(1)
	if got.Price != nil {
		price = *got.Price
	}
	switch {
	case got.Admitted != want.Admitted:
		return fmt.Errorf("admitted %v, replay %v", got.Admitted, want.Admitted)
	case got.ID != want.ID:
		return fmt.Errorf("id %d, replay %d", got.ID, want.ID)
	case got.Reason != string(want.Reason):
		return fmt.Errorf("reason %q, replay %q", got.Reason, want.Reason)
	case math.Float64bits(price) != math.Float64bits(want.Price):
		return fmt.Errorf("price %v, replay %v", price, want.Price)
	case !slices.Equal(got.Path, want.Path):
		return fmt.Errorf("path %v, replay %v", got.Path, want.Path)
	}
	return nil
}

// check replays every admit in-process, per session in the order sent.
// In a traced pass each admit is preceded by a Quote on the replay
// state, so the decide step (oracle and price test) and the commit
// step (price update, invalidation) are timed apart.
func (w *stream) check(p *pass, rec *recorder) error {
	d := p.detail.(*streamDetail)
	errs := make([]error, streamSessions)
	replay := func(sess int) {
		st, err := newReplayState(w.network, streamEps)
		if err != nil {
			errs[sess] = err
			return
		}
		for i, op := range d.ops {
			if op.sess != sess || !op.res.ok() {
				continue
			}
			r := w.inst.Requests[op.req]
			var want core.Decision
			if rec == nil {
				want, err = st.Admit(r)
			} else {
				want, err = tracedAdmit(st, r, rec, d)
			}
			if err == nil {
				err = sameDecision(op.dec, want)
			}
			if err != nil {
				errs[sess] = fmt.Errorf("admit %d (session %d, request %d): %w", i, op.sess, op.req, err)
				return
			}
		}
	}
	if rec != nil {
		// One session at a time: the timings see an otherwise idle
		// machine, and d's timing lists need no lock.
		for sess := range streamSessions {
			replay(sess)
		}
		return errors.Join(errs...)
	}
	// Sessions are independent: replay them one per core.
	var wg sync.WaitGroup
	cores := make(chan struct{}, runtime.NumCPU())
	for sess := range streamSessions {
		wg.Add(1)
		cores <- struct{}{}
		go func() {
			defer wg.Done()
			replay(sess)
			<-cores
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tracedAdmit times Quote then Admit on st and records both as spans.
func tracedAdmit(st *core.AdmissionState, r core.Request, rec *recorder, d *streamDetail) (core.Decision, error) {
	rebuilds := st.CacheStats().LandmarkRebuilds
	t0 := time.Now()
	if _, err := st.Quote(r); err != nil {
		return core.Decision{}, err
	}
	t1 := time.Now()
	want, err := st.Admit(r)
	t2 := time.Now()
	root := rec.add(0, 0, "replay.admit", t0, t2)
	rec.add(root, root, "core.decide", t0, t1)
	rec.add(root, root, "core.commit", t1, t2)
	d.quoteMs = append(d.quoteMs, ms(t1.Sub(t0)))
	d.admitMs = append(d.admitMs, ms(t2.Sub(t1)))
	if st.CacheStats().LandmarkRebuilds > rebuilds {
		d.rebuildAdmitMs = append(d.rebuildAdmitMs, ms(t2.Sub(t0)))
	}
	return want, err
}

func (w *stream) layers(p *pass, rec *recorder, m map[string]float64) error {
	d := p.detail.(*streamDetail)
	httpLayers(p, rec, m, "admit")
	m["ufpserve.register_ms"] = median(append([]float64(nil), w.regMs...))
	sessionLayer(p, rec, m)
	setMedian(m, "core.decide_ms_p50", d.quoteMs)
	setPercentile(m, "core.decide_ms_p99", d.quoteMs, 99)
	setMedian(m, "core.commit_ms_p50", d.admitMs)
	if len(d.rebuildAdmitMs) > 0 {
		setMedian(m, "pathfind.rebuild_admit_ms_p50", d.rebuildAdmitMs)
	}
	if total := sum(d.quoteMs) + sum(d.admitMs); total > 0 {
		m["pathfind.rebuild_time_share"] = sum(d.rebuildAdmitMs) / total
	}
	return nil
}
