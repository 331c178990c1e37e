package main

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/scenario"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{999, 99, 0},
		{1000, 99, 990},
		{9999, 99.9, 0},
		{10000, 99.9, 9990},
		{19, 50, 0},
		{20, 50, 10},
		{0, 50, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if !errors.Is(err, errTooFewSamples) {
				t.Errorf("p%v of %d samples = %v, %v; want a refusal", c.p, c.n, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := percentile(seq(5000), 100); err == nil {
		t.Error("p100 accepted")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

func TestSecondsMedianIgnoresShortBumps(t *testing.T) {
	// Five seconds of 200 ops at 1 ms; seconds 1 and 3 are slowed to
	// 10 ms, which moves the pooled median but not the per-second one.
	var lat []float64
	var at []int
	for sec := range 5 {
		x := 1.0
		if sec == 1 || sec == 3 {
			x = 10
		}
		for range 200 {
			lat, at = append(lat, x), append(at, sec)
		}
	}
	if got := median(append([]float64(nil), lat...)); got != 1 {
		t.Fatalf("pooled median = %v, want 1 (set-up)", got)
	}
	if got := secondsMedian(lat, at); got != 1 {
		t.Errorf("secondsMedian = %v, want 1", got)
	}
	// A bump over most of the window does move it.
	for i := range lat {
		if at[i] == 0 {
			lat[i] = 10
		}
	}
	if got := secondsMedian(lat, at); got != 10 {
		t.Errorf("secondsMedian with three slow seconds = %v, want 10", got)
	}
	// Too few ops a second for their own median: the pooled one.
	if got := secondsMedian([]float64{5, 1, 3}, []int{0, 1, 2}); got != 3 {
		t.Errorf("secondsMedian of sparse ops = %v, want 3", got)
	}
}

func TestParseSchedstat(t *testing.T) {
	if got, err := parseSchedstat("1234567890 5000 42\n"); err != nil || got != 1234567890*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v; want 1.23456789s", got, err)
	}
	for _, bad := range []string{"", "12 34", "x 1 2", "-5 1 2"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
}

func TestEndToEndCPU(t *testing.T) {
	// Without a workload's own figure, the window's CPU time over the
	// ops that succeeded: a failed op is not a served one.
	p := newPass(5)
	p.serverCPU = 3 * time.Millisecond
	p.op("admit", 0, 1, true, 0)
	p.op("admit", 0, 1, true, 0)
	p.op("admit", 0, 9, false, 0)
	m, err := endToEnd(p)
	if err != nil || m["server_cpu_ms_per_op"] != 1.5 {
		t.Errorf("server_cpu_ms_per_op = %v, %v; want 1.5", m["server_cpu_ms_per_op"], err)
	}
	p.cpuPerOpMs = 0.7
	if m, err = endToEnd(p); err != nil || m["server_cpu_ms_per_op"] != 0.7 {
		t.Errorf("server_cpu_ms_per_op = %v, %v; want the workload's 0.7", m["server_cpu_ms_per_op"], err)
	}
	p.cpuPerOpMs, p.serverCPU = 0, 0
	if _, err := endToEnd(p); err == nil {
		t.Error("a window without server CPU time accepted")
	}
}

func TestBlockMedian(t *testing.T) {
	// Three blocks at 1 ms an op, one slowed to 4 ms; in the last, half
	// the ops failed, so its time is spread over the other half.
	ok := make([]bool, 4*streamCPUBlock)
	for i := range ok {
		ok[i] = i < 3*streamCPUBlock || i%2 == 0
	}
	b := time.Duration(streamCPUBlock) * time.Millisecond
	cpu := []time.Duration{0, b, 5 * b, 6 * b, 7 * b}
	if got := blockMedian(cpu, ok); got != 1.5 {
		t.Errorf("blockMedian = %v, want 1.5 (1, 1, 2, 4)", got)
	}
	if got := blockMedian(cpu[:1], ok); got != 0 {
		t.Errorf("blockMedian without a block = %v, want 0", got)
	}
}

func TestInstanceMean(t *testing.T) {
	got := instanceMean([][]float64{{1, 1, 9}, {2, 30, 2}, {3}, {4, 4}})
	if got != 2.5 {
		t.Errorf("instanceMean = %v, want 2.5", got)
	}
	if got := instanceMean([][]float64{{1}, nil}); got != 0 {
		t.Errorf("instanceMean with an unsolved instance = %v, want 0", got)
	}
}

func TestServerTimingApp(t *testing.T) {
	for header, want := range map[string]float64{
		"app;dur=0.123":                    0.123,
		`db;dur=3, app;desc="x";dur=1.500`: 1.5,
		"app;dur=12":                       12,
	} {
		if got, ok := serverTimingApp(header); !ok || got != want {
			t.Errorf("serverTimingApp(%q) = %v, %v; want %v", header, got, ok, want)
		}
	}
	for _, header := range []string{"", "db;dur=3", "app", "app;dur=", "app;dur=x", "app;dur=-1"} {
		if got, ok := serverTimingApp(header); ok {
			t.Errorf("serverTimingApp(%q) = %v, want no value", header, got)
		}
	}
}

func TestParseDecision(t *testing.T) {
	d, err := parseDecision([]byte(`{"admitted":true,"id":7,"price":0.25,"path":[1,4],"elapsedMs":0.481}`))
	if err != nil || !d.Admitted || d.ID != 7 || *d.Price != 0.25 || *d.ElapsedMs != 0.481 || len(d.Path) != 2 {
		t.Fatalf("parseDecision = %+v, %v", d, err)
	}
	d, err = parseDecision([]byte(`{"admitted":false,"reason":"no-path","price":null,"elapsedMs":0.01}`))
	if err != nil || d.Price != nil || d.Reason != "no-path" {
		t.Fatalf("no-path decision = %+v, %v", d, err)
	}
	if _, err := parseDecision([]byte(`{"admitted":true,"id":7,"price":0.25}`)); err == nil {
		t.Error("a decision without elapsedMs was accepted")
	}
	if _, err := parseDecision([]byte(`{"admitted":`)); err == nil {
		t.Error("truncated JSON was accepted")
	}
}

func TestExposition(t *testing.T) {
	text := `# HELP ufp_session_admit_duration_seconds Per-admit solver time.
# TYPE ufp_session_admit_duration_seconds histogram
ufp_session_admit_duration_seconds_bucket{shard="s0",le="0.001"} 3
ufp_session_admit_duration_seconds_sum{shard="s0"} 0.0125
ufp_session_admit_duration_seconds_count{shard="s0"} 4
ufp_session_admit_duration_seconds_sum{shard="s1"} 0.5
ufp_session_admit_duration_seconds_count{shard="s1"} 2
ufp_session_evictions_total{reason="lru"} 0
ufp_session_evictions_total{reason="ttl"} 2
ufp_pathcache_landmark_registry_lookups_total{result="hit"} 7
ufp_pathcache_landmark_registry_lookups_total{result="miss"} 1
ufp_pathcache_landmark_rebuilds_total 5
ufp_pathcache_landmark_rebuild_duration_seconds_sum 1.5e-02
`
	e, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"ufp_session_admit_duration_seconds_sum":              0.5125,
		"ufp_session_admit_duration_seconds_count":            6,
		"ufp_session_evictions_total":                         2,
		"ufp_pathcache_landmark_rebuilds_total":               5,
		"ufp_pathcache_landmark_rebuild_duration_seconds_sum": 0.015,
		"ufp_pathcache_landmark_rebuild":                      0,
	} {
		if got := e.family(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("family(%s) = %v, want %v", name, got, want)
		}
	}
	if got := e.labeled("ufp_pathcache_landmark_registry_lookups_total", "result", "hit"); got != 7 {
		t.Errorf("registry hits = %v", got)
	}
	if _, err := parseExposition("ufp_x_total\n"); err == nil {
		t.Error("a sample without a value was accepted")
	}
	if _, err := parseExposition("ufp_x_total one\n"); err == nil {
		t.Error("a non-numeric sample was accepted")
	}
}

// serverAnswer encodes a decision the way ufpserve's admit route does
// and decodes it the way the benchmark reads it.
func serverAnswer(t *testing.T, d core.Decision) decision {
	t.Helper()
	body := map[string]any{"admitted": d.Admitted, "reason": string(d.Reason), "path": d.Path, "elapsedMs": 0.1}
	if d.ID != 0 {
		body["id"] = d.ID
	}
	if d.Reason != core.RejectNoPath {
		body["price"] = d.Price
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseDecision(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// streamFixture runs a small admit stream through independent
// in-process states standing in for the server's sessions, and returns
// the workload and the pass its answers make.
func streamFixture(t *testing.T) (*stream, *pass) {
	t.Helper()
	inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net, err := truthfulufp.MarshalNetwork(inst.G)
	if err != nil {
		t.Fatal(err)
	}
	w := &stream{inst: inst, network: []byte(`{"eps":` + strconv.FormatFloat(streamEps, 'g', -1, 64) + `,"network":` + string(net) + `}`)}
	servers := make([]*core.AdmissionState, streamSessions)
	for i := range servers {
		if servers[i], err = newReplayState(w.network, streamEps); err != nil {
			t.Fatal(err)
		}
	}
	d := &streamDetail{}
	for i := 0; i < 4*len(inst.Requests); i++ {
		op := streamOp{sess: i % streamSessions, req: (7 * i) % len(inst.Requests), res: result{status: 200}}
		dec, err := servers[op.sess].Admit(inst.Requests[op.req])
		if err != nil {
			t.Fatal(err)
		}
		op.dec = serverAnswer(t, dec)
		d.ops = append(d.ops, op)
	}
	return w, &pass{detail: d}
}

func TestStreamCheckCatchesOneFlippedDecision(t *testing.T) {
	w, p := streamFixture(t)
	if err := w.check(p, nil); err != nil {
		t.Fatalf("faithful answers rejected: %v", err)
	}
	if err := w.check(p, newRecorder()); err != nil {
		t.Fatalf("faithful answers rejected by the traced replay: %v", err)
	}
	ops := p.detail.(*streamDetail).ops
	admitted := -1
	for i, op := range ops {
		if op.dec.Admitted {
			admitted = i
		}
	}
	if admitted < 0 {
		t.Fatal("fixture admits nothing")
	}
	for name, corrupt := range map[string]func(*decision){
		"admitted flag": func(d *decision) { d.Admitted = false },
		"price by one ulp": func(d *decision) {
			p := math.Nextafter(*d.Price, math.Inf(1))
			d.Price = &p
		},
		"path": func(d *decision) { d.Path = append([]int(nil), d.Path[:len(d.Path)-1]...) },
	} {
		w, p := streamFixture(t)
		corrupt(&p.detail.(*streamDetail).ops[admitted].dec)
		if err := w.check(p, nil); err == nil {
			t.Errorf("a flipped %s passed the check", name)
		}
	}
}

func TestMechanismChecks(t *testing.T) {
	inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.BoundedUFP(inst, mechEps, nil)
	if err != nil || len(a.Routed) == 0 {
		t.Fatalf("fixture allocation: %v (%d routed)", err, len(a.Routed))
	}
	if err := sameAllocation(a, a); err != nil {
		t.Fatal(err)
	}
	other := *a
	other.Routed = a.Routed[1:]
	if sameAllocation(&other, a) == nil {
		t.Error("an allocation missing a winner passed")
	}
	pay := map[int]float64{}
	for _, r := range a.Routed {
		pay[r.Request] = inst.Requests[r.Request].Value / 2
	}
	out := &truthfulufp.UFPOutcome{Allocation: a, Payments: pay}
	if err := paymentsInRange(out, inst); err != nil {
		t.Fatal(err)
	}
	r := a.Routed[0].Request
	for name, bad := range map[string]float64{
		"zero":          0,
		"above the bid": math.Nextafter(inst.Requests[r].Value, math.Inf(1)),
	} {
		pay[r] = bad
		if paymentsInRange(out, inst) == nil {
			t.Errorf("a payment of %s passed", name)
		}
	}
	pay[r] = 1
	repeat := map[int]float64{}
	for k, v := range pay {
		repeat[k] = v
	}
	if err := samePayments(repeat, pay); err != nil {
		t.Fatal(err)
	}
	repeat[r] = math.Nextafter(1, 2)
	if samePayments(repeat, pay) == nil {
		t.Error("a payment one ulp off passed the repeat check")
	}
}

func TestSelfTimes(t *testing.T) {
	rec := newRecorder()
	t0 := rec.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := rec.add(0, 0, "http.admit", at(0), at(10))
	app := rec.add(root, root, "ufpserve.app", at(2), at(8))
	rec.add(root, app, "session.op", at(3), at(7))
	other := rec.add(0, 0, "http.release", at(20), at(30))
	rec.add(other, other, "ufpserve.app", at(21), at(29))
	if got := rec.selfTimes("http.admit"); len(got) != 1 || got[0] != 4 {
		t.Errorf("transport self time = %v, want [4]", got)
	}
	if got := rec.selfTimes("ufpserve.app", "http.admit"); len(got) != 1 || got[0] != 2 {
		t.Errorf("handler self time under admits = %v, want [2]", got)
	}
	if got := rec.selfTimes("ufpserve.app"); len(got) != 2 {
		t.Errorf("handler self times = %v, want two", got)
	}
	if got := covered([][2]int64{{0, 5}, {3, 8}, {20, 30}}, 2, 25); got != 11 {
		t.Errorf("covered = %d, want 11", got)
	}
}
