package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/scenario"
)

// The tenant fleet: about a thousand small sessions on a 4-shard
// server, driven open-loop at a fixed offered rate over two
// connections while a third scrapes /metrics. The networks sit below
// the landmark threshold, so the oracle is nearly free and the serving
// stack (decode, encode, shard routing, the session manager's lock,
// session locks, the scrape) dominates.
const (
	fleetSessions = 1000
	fleetShards   = 4
	fleetConns    = 2
	// fleetRate is the offered load (ops/s over both connections). On
	// the 2-core Xeon the fleet was tuned on, server and client then use
	// about 30% of the CPU time: at 3000 ops/s (near 60%) every host stall
	// queued up into the tail.
	fleetRate = 1500
	// fleetSLOMs is the fleet's latency limit for slo_ok_ratio: over
	// ten times the median op, so what misses it is a stall.
	fleetSLOMs = 5
	// fleetReleaseShare and fleetPriceShare set the op mix: each op is a
	// release of one of the session's held admissions with probability
	// fleetReleaseShare (a price quote when it holds none), a quote with
	// probability fleetPriceShare, and an admit otherwise. The mix is an
	// assumption: the repository records no session traffic to take it
	// from. loadgen.sent.<kind> reports the mix a run realised.
	fleetReleaseShare = 0.2
	fleetPriceShare   = 0.4
	// fleetScrapeEvery is the /metrics scrape interval.
	fleetScrapeEvery = 50 * time.Millisecond
	fleetEps         = 0.25
)

type fleet struct {
	seed    uint64
	inst    *core.Instance
	network []byte
	ids     []string
}

// fleetOp is one op as sent and answered. due is when the open loop
// scheduled it; latency runs from there.
type fleetOp struct {
	sess  int
	kind  string // admit, price or release
	req   int    // request index (admit, price)
	relID int64  // admission released (release)
	due   time.Time
	res   result
	bytes int
	dec   decision
	rel   releasedJSON
}

type releasedJSON struct {
	ID     int64   `json:"id"`
	Source int     `json:"source"`
	Target int     `json:"target"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	Price  float64 `json:"price"`
	Path   []int   `json:"path"`
}

// scrapeRec is one /metrics scrape of the fleet's scraper.
type scrapeRec struct {
	start, end time.Time
	bytes      int
}

type fleetDetail struct {
	ops     [fleetConns][]fleetOp
	scrapes []scrapeRec
	lagMs   []float64
}

func (w *fleet) flags() []string {
	// -max-sessions is per shard; the default (64) would evict most of
	// the fleet without notice.
	return []string{"-shards", strconv.Itoa(fleetShards), "-max-sessions", strconv.Itoa(2 * fleetSessions)}
}

func (w *fleet) setUp(s *server) error {
	inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Size: 4, Seed: w.seed})
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
	w.network = []byte(`{"eps":` + strconv.FormatFloat(fleetEps, 'g', -1, 64) + `,"network":` + string(net) + `}`)
	c := s.dial()
	defer c.close()
	w.ids = w.ids[:0]
	for range fleetSessions {
		id, _, err := register(c, w.network)
		if err != nil {
			return err
		}
		w.ids = append(w.ids, id)
	}
	return nil
}

func (w *fleet) measure(s *server, window time.Duration, rec *recorder) (*pass, error) {
	ctl := s.dial()
	defer ctl.close()
	before, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	d := &fleetDetail{}
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	var lags [fleetConns][]float64
	for c := range fleetConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.ops[c], lags[c] = w.drive(s, c, start, end, rec)
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan []scrapeRec)
	go func() { scraped <- scraper(s, stop) }()
	wg.Wait()
	close(stop)
	d.scrapes = <-scraped
	after, err := ctl.scrape()
	if err != nil {
		return nil, err
	}
	p := newPass(fleetSLOMs)
	p.before, p.after, p.detail = before, after, d
	last := start
	for c := range fleetConns {
		d.lagMs = append(d.lagMs, lags[c]...)
		for _, op := range d.ops[c] {
			p.op(op.kind, op.due.Sub(start), ms(op.res.done.Sub(op.due)), op.res.ok(), op.bytes)
			if op.res.done.After(last) {
				last = op.res.done
			}
		}
	}
	// The served rate of an open loop is the offered rate unless ops
	// fail, so throughput_ops_s is not a regression signal here.
	p.span = last.Sub(start)
	return p, nil
}

// drive is one connection's open loop: ops due at even intervals at
// its share of fleetRate, each on a session this connection owns
// (index ≡ c mod fleetConns), so every session's ops are totally
// ordered. The seed picks each op's session, kind (see
// fleetReleaseShare) and request.
func (w *fleet) drive(s *server, c int, start, end time.Time, rec *recorder) ([]fleetOp, []float64) {
	conn := s.dial()
	defer conn.close()
	rng := rand.New(rand.NewPCG(w.seed, uint64(1000+c)))
	live := map[int][]int64{} // session -> admission ids it holds
	owned := (fleetSessions - c + fleetConns - 1) / fleetConns
	var ops []fleetOp
	var lag []float64
	due := start
	for {
		due = due.Add(time.Second * fleetConns / fleetRate)
		if !due.Before(end) {
			return ops, lag
		}
		op := fleetOp{sess: c + fleetConns*rng.IntN(owned), due: due}
		op.req = rng.IntN(len(w.inst.Requests))
		held := live[op.sess]
		switch x := rng.Float64(); {
		case x < fleetReleaseShare && len(held) > 0:
			op.kind = "release"
			k := rng.IntN(len(held))
			op.relID = held[k]
			live[op.sess] = slices.Delete(held, k, k+1)
		case x < fleetReleaseShare+fleetPriceShare:
			op.kind = "price"
		default:
			op.kind = "admit"
		}
		pace(due)
		path := "/v1/networks/" + w.ids[op.sess] + "/" + op.kind
		var body []byte
		if op.kind == "release" {
			body = []byte(`{"id":` + strconv.FormatInt(op.relID, 10) + `}`)
		} else {
			body = requestBody(w.inst.Requests[op.req])
		}
		op.res = conn.post(path, body)
		op.bytes = len(op.res.body)
		lag = append(lag, ms(op.res.sent.Sub(due)))
		elapsed := -1.0
		if op.res.ok() {
			var err error
			if op.kind == "release" {
				var out struct {
					Released releasedJSON `json:"released"`
				}
				err = json.Unmarshal(op.res.body, &out)
				op.rel = out.Released
			} else if op.dec, err = parseDecision(op.res.body); err == nil {
				elapsed = *op.dec.ElapsedMs
				if op.kind == "admit" && op.dec.Admitted {
					live[op.sess] = append(live[op.sess], op.dec.ID)
				}
			}
			if err != nil {
				// An undecodable 2xx is a failed op.
				op.res.status = 0
			}
		}
		rec.httpOp(op.kind, op.res, "session.op", elapsed)
		op.res.body = nil
		ops = append(ops, op)
	}
}

// pace blocks until t. time.Sleep rounds short waits up to the
// runtime's millisecond timer tick, which would make the generator, not
// the server, set the latency of an open loop at this rate; a
// nanosleep system call overshoots by tens of microseconds instead
// (loadgen.lag_ms_p99 reports how late the generator ran).
func pace(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// scraper fetches /metrics every fleetScrapeEvery on its own
// connection until stop is closed.
func scraper(s *server, stop <-chan struct{}) []scrapeRec {
	conn := s.dial()
	defer conn.close()
	t := time.NewTicker(fleetScrapeEvery)
	defer t.Stop()
	var out []scrapeRec
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		r := scrapeRec{start: time.Now()}
		body, err := conn.get("/metrics")
		r.end, r.bytes = time.Now(), len(body)
		if err == nil {
			out = append(out, r)
		}
	}
}

// check replays each session's ops in-process in the order its
// connection sent them: admits, quotes and releases must match bit for
// bit.
func (w *fleet) check(p *pass, rec *recorder) error {
	d := p.detail.(*fleetDetail)
	states := map[int]*core.AdmissionState{}
	for c := range fleetConns {
		for i, op := range d.ops[c] {
			if !op.res.ok() {
				continue
			}
			st := states[op.sess]
			if st == nil {
				var err error
				if st, err = newReplayState(w.network, fleetEps); err != nil {
					return err
				}
				states[op.sess] = st
			}
			if err := replayFleetOp(st, w.inst, op, rec); err != nil {
				return fmt.Errorf("connection %d op %d (%s on session %d): %w", c, i, op.kind, op.sess, err)
			}
		}
	}
	return nil
}

func replayFleetOp(st *core.AdmissionState, inst *core.Instance, op fleetOp, rec *recorder) error {
	t0 := time.Now()
	defer func() { rec.add(0, 0, "core."+op.kind, t0, time.Now()) }()
	switch op.kind {
	case "release":
		a, err := st.Release(op.relID)
		if err != nil {
			return err
		}
		got := op.rel
		if got.ID != a.ID || got.Source != a.Request.Source || got.Target != a.Request.Target ||
			math.Float64bits(got.Demand) != math.Float64bits(a.Request.Demand) ||
			math.Float64bits(got.Value) != math.Float64bits(a.Request.Value) ||
			math.Float64bits(got.Price) != math.Float64bits(a.Price) || !slices.Equal(got.Path, a.Path) {
			return fmt.Errorf("released %+v, replay %+v", got, *a)
		}
		return nil
	case "price":
		want, err := st.Quote(inst.Requests[op.req])
		if err != nil {
			return err
		}
		return sameDecision(op.dec, want)
	default:
		want, err := st.Admit(inst.Requests[op.req])
		if err != nil {
			return err
		}
		return sameDecision(op.dec, want)
	}
}

func (w *fleet) layers(p *pass, rec *recorder, m map[string]float64) error {
	d := p.detail.(*fleetDetail)
	httpLayers(p, rec, m, "admit", "price")
	sessionLayer(p, rec, m)
	// Session ops are routed by the shard prefix of the session id
	// (ufp_shard_routed_total counts solve jobs only, which the fleet
	// does not send), so the imbalance is over the ops sent per shard.
	perShard := map[string]float64{}
	for c := range fleetConns {
		for _, op := range d.ops[c] {
			perShard[shardOf(w.ids[op.sess])]++
		}
	}
	var most, total float64
	for _, n := range perShard {
		most, total = math.Max(most, n), total+n
	}
	if total > 0 {
		m["shard.routed_imbalance"] = most / (total / fleetShards)
	}
	var scrapeMs, scrapeBytes []float64
	for _, s := range d.scrapes {
		scrapeMs = append(scrapeMs, ms(s.end.Sub(s.start)))
		scrapeBytes = append(scrapeBytes, float64(s.bytes))
	}
	setMedian(m, "metrics.scrape_ms_p50", scrapeMs)
	if len(scrapeMs) > 0 {
		m["metrics.scrape_ms_max"] = maxOf(scrapeMs)
	}
	setMedian(m, "metrics.scrape_bytes", scrapeBytes)
	var overlap, clear []float64
	for c := range fleetConns {
		for _, op := range d.ops[c] {
			lat := ms(op.res.done.Sub(op.due))
			if overlapsScrape(op.due, op.res.done, d.scrapes) {
				overlap = append(overlap, lat)
			} else {
				clear = append(clear, lat)
			}
		}
	}
	setPercentile(m, "metrics.overlap_op_ms_p99", overlap, 99)
	setPercentile(m, "metrics.clear_op_ms_p99", clear, 99)
	setPercentile(m, "loadgen.lag_ms_p99", d.lagMs, 99)
	return nil
}

// shardOf returns the shard prefix ("s2-") of a session id.
func shardOf(id string) string {
	if i := strings.IndexByte(id, '-'); i >= 0 {
		return id[:i+1]
	}
	return ""
}

// overlapsScrape reports whether [from, to] intersects any scrape.
// scrapes is in time order.
func overlapsScrape(from, to time.Time, scrapes []scrapeRec) bool {
	i, _ := slices.BinarySearchFunc(scrapes, from, func(s scrapeRec, t time.Time) int {
		return s.end.Compare(t)
	})
	return i < len(scrapes) && !scrapes[i].start.After(to)
}
