package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what every workload needs from the command line.
type env struct {
	bin    string
	out    string
	window time.Duration
}

// workload is one named traffic mix. The runner owns the sequence:
// setUp (timed as setup_s), measure for the window, check every answer,
// and in a traced pass derive the per-layer figures.
type workload interface {
	// flags are the ufpserve flags the workload runs under.
	flags() []string
	// setUp generates the inputs from the seed and registers every
	// session the workload uses on a freshly started server.
	setUp(s *server) error
	// measure drives the timed traffic; rec is nil in untraced passes.
	measure(s *server, window time.Duration, rec *recorder) (*pass, error)
	// check replays the pass's answers in-process and returns an error
	// on the first mismatch. In a traced pass rec receives the replay's
	// spans around the calls into core and mechanism.
	check(p *pass, rec *recorder) error
	// layers adds the per-layer figures of a traced pass to m.
	layers(p *pass, rec *recorder, m map[string]float64) error
}

// pass is one measured window as the client saw it.
type pass struct {
	// latMs holds every op's latency (ms). Failed ops count too, with
	// the time they took to fail. atS holds, for each, the second of the
	// window in which the op was due or sent, and okAt whether it got a
	// 2xx.
	latMs     []float64
	atS       []int
	okAt      []bool
	attempted int
	failed    int
	// span is the closed loop's busy time, the throughput denominator.
	span      time.Duration
	sentBy    map[string]int
	failedBy  map[string]int
	respBytes int64
	// sloMs is the workload's latency limit for slo_ok_ratio.
	sloMs float64
	sloOK int
	// rssMB is the server's peak RSS, read at the end of the window
	// unless the workload read it at a point of its own.
	rssMB float64
	// serverCPU is the CPU time ufpserve ran from before the window to
	// after it, steal left out (see server.cpuTime).
	serverCPU time.Duration
	// cpuPerOpMs, when a workload sets it, is its own measure of the
	// server's CPU time per op, taken over units that are the same work
	// in every run; otherwise it is serverCPU over the successful ops.
	cpuPerOpMs float64
	// stealPct is the host CPU steal over the window: the time the
	// hypervisor ran other guests while this machine's CPUs had work. It
	// slows every layer at once, so the stamp reports it.
	stealPct float64
	// before/after are /metrics scrapes around the window.
	before, after exposition
	detail        any // the workload's own per-op record
}

func newPass(sloMs float64) *pass {
	return &pass{sentBy: map[string]int{}, failedBy: map[string]int{}, sloMs: sloMs}
}

// op accounts one finished op of the given kind, due or sent at offset
// at into the window.
func (p *pass) op(kind string, at time.Duration, latMs float64, ok bool, bytes int) {
	p.attempted++
	p.respBytes += int64(bytes)
	p.sentBy[kind]++
	p.latMs = append(p.latMs, latMs)
	p.atS = append(p.atS, int(at/time.Second))
	p.okAt = append(p.okAt, ok)
	if !ok {
		p.failed++
		p.failedBy[kind]++
		return
	}
	if latMs <= p.sloMs {
		p.sloOK++
	}
}

// setUp times one full set-up of w: input generation, server start and
// readiness, session registration.
func setUp(e *env, w workload) (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer(e.bin, e.out, w.flags())
	if err != nil {
		return nil, 0, err
	}
	if err := w.setUp(s); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// measureEndToEnd is a trace-0 run: set up setupRepeats times, measure
// the last set-up untraced, check the answers, report end-to-end.
func measureEndToEnd(e *env, w workload) (map[string]float64, *pass, error) {
	var setups []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(e, w); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		logf("set-up %d: %.3fs", i+1, d.Seconds())
	}
	p, err := measurePass(s, e, w, nil)
	if err == nil {
		err = check(w, p, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	m, err := endToEnd(p)
	if err != nil {
		return nil, nil, err
	}
	m["setup_s"] = median(setups)
	return m, p, nil
}

// measureLayers is a trace-1 run: an untraced pass, then a traced pass
// on a fresh set-up; per-layer figures come from the traced one and the
// tracing overhead from comparing the two.
func measureLayers(e *env, w workload, spansPath string) (map[string]float64, *pass, error) {
	s, _, err := setUp(e, w)
	if err != nil {
		return nil, nil, err
	}
	plain, err := measurePass(s, e, w, nil)
	if err == nil {
		err = check(w, plain, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	if s, _, err = setUp(e, w); err != nil {
		return nil, nil, err
	}
	traced, err := measurePass(s, e, w, rec)
	if err == nil {
		err = check(w, traced, rec)
	}
	if err != nil {
		return nil, nil, err
	}
	m := map[string]float64{}
	if err := w.layers(traced, rec, m); err != nil {
		return nil, nil, err
	}
	loadgenLayer(traced, m)
	pathfindCounters(traced, m)
	for metric, series := range mustBeZero {
		m[metric] = traced.after.family(series)
	}
	// The client-side latencies come from the untraced pass, like the
	// end-to-end metrics; the mechanism has too few solves for tails.
	wallClock(plain, m)
	setPercentile(m, "latency_p99_ms", plain.latMs, 99)
	setPercentile(m, "latency_p999_ms", plain.latMs, 99.9)
	m["trace.overhead_ratio"] = median(traced.latMs) / median(plain.latMs)
	if err := rec.write(spansPath); err != nil {
		return nil, nil, err
	}
	return m, traced, nil
}

// measurePass measures one window on a set-up server and stops the
// server. A pass whose server counted any of mustBeZero is an error.
func measurePass(s *server, e *env, w workload, rec *recorder) (*pass, error) {
	start := time.Now()
	steal0, total0 := cpuTicks()
	cpu0, err := s.cpuTime()
	var p *pass
	if err == nil {
		p, err = w.measure(s, e.window, rec)
	}
	if err == nil {
		var cpu1 time.Duration
		if cpu1, err = s.cpuTime(); err == nil {
			p.serverCPU = cpu1 - cpu0
		}
	}
	if err == nil {
		if steal1, total1 := cpuTicks(); total1 > total0 {
			p.stealPct = 100 * (steal1 - steal0) / (total1 - total0)
		}
		if p.rssMB == 0 {
			p.rssMB, err = s.peakRSSMB()
		}
	}
	s.stop()
	if err == nil {
		err = validate(p)
	}
	if err != nil {
		return nil, err
	}
	logf("measured %d ops in %.1fs (%d failed, server CPU %.2fs, host steal %.1f%%)", p.attempted, time.Since(start).Seconds(), p.failed, p.serverCPU.Seconds(), p.stealPct)
	return p, nil
}

// check replays every answer of a pass; a mismatch fails the run.
func check(w workload, p *pass, rec *recorder) error {
	start := time.Now()
	if err := w.check(p, rec); err != nil {
		return fmt.Errorf("output check failed: %w", err)
	}
	logf("checked every answer in %.1fs", time.Since(start).Seconds())
	return nil
}

// mustBeZero are the server counters that void a pass when non-zero:
// an evicted session turns later ops into 404/410s, a misrouted op
// never reached its shard's session, and a result-cache hit skips the
// solve the mechanism workload exists to time.
var mustBeZero = map[string]string{
	"session.evictions": "ufp_session_evictions_total",
	"shard.misrouted":   "ufp_shard_misrouted_total",
	"engine.cache_hits": "ufp_engine_cache_hits_total",
}

// validate refuses a pass whose server counted any of mustBeZero since
// it started.
func validate(p *pass) error {
	for metric, series := range mustBeZero {
		if n := p.after.family(series); n != 0 {
			return fmt.Errorf("invalid run: %s = %v", metric, n)
		}
	}
	return nil
}

// endToEnd derives the bounded metrics a user sees from one untraced
// pass. The server's CPU time per op carries the cost of an op: the
// wall-clock latency and throughput (wallClock) move with the host's
// speed by more than any bound allows, so they are per-layer figures.
func endToEnd(p *pass) (map[string]float64, error) {
	ok := p.attempted - p.failed
	if ok == 0 {
		return nil, fmt.Errorf("no op succeeded in the measured window")
	}
	cpuMs := p.cpuPerOpMs
	if cpuMs == 0 {
		cpuMs = ms(p.serverCPU) / float64(ok)
	}
	if cpuMs <= 0 {
		return nil, fmt.Errorf("no server CPU time measured in the window")
	}
	return map[string]float64{
		"server_cpu_ms_per_op": cpuMs,
		"slo_ok_ratio":         float64(p.sloOK) / float64(p.attempted),
		"ok_ratio":             float64(ok) / float64(p.attempted),
		"server_rss_mb":        p.rssMB,
	}, nil
}

// wallClock adds the client-observed median latency and throughput of
// one untraced pass to m.
func wallClock(p *pass, m map[string]float64) {
	m["latency_p50_ms"] = secondsMedian(p.latMs, p.atS)
	m["throughput_ops_s"] = float64(p.attempted-p.failed) / p.span.Seconds()
}

// loadgenLayer adds the load generator's own counts.
func loadgenLayer(p *pass, m map[string]float64) {
	for _, kind := range []string{"admit", "price", "release", "solve"} {
		m["loadgen.sent."+kind] = float64(p.sentBy[kind])
		m["loadgen.failed."+kind] = float64(p.failedBy[kind])
	}
}

// setPercentile stores the q-th percentile of xs under name when the
// sample supports it; otherwise the metric stays unmeasured.
func setPercentile(m map[string]float64, name string, xs []float64, q float64) {
	if v, err := percentile(append([]float64(nil), xs...), q); err == nil {
		m[name] = v
	}
}

// setMedian stores the median of xs under name when there is a sample.
func setMedian(m map[string]float64, name string, xs []float64) {
	if len(xs) > 0 {
		m[name] = median(append([]float64(nil), xs...))
	}
}

// environment is the stamp printed with every result: enough to tell
// whether two results are comparable.
func environment(bin, name string, seed uint64, seconds, trace int, flags []string) map[string]any {
	stamp := map[string]any{
		"workload":     name,
		"seed":         seed,
		"seconds":      seconds,
		"trace":        trace,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"serverFlags":  flags,
		"commit":       commit(),
		"sourceSHA256": sourceDigest("."),
	}
	if v, err := exec.Command("go", "version", bin).Output(); err == nil {
		_, version, _ := strings.Cut(strings.TrimSpace(string(v)), ": ")
		stamp["serverGo"] = version
	}
	return stamp
}

// cpuTicks reads the machine-wide CPU time counters: the ticks the
// hypervisor stole from this VM and the total.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git work
// tree (the source digest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping dot-directories (build output lives there).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compactJSON strips the indentation the repository's marshalers emit.
func compactJSON(data []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, data); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// logf reports progress on standard error; standard output carries only
// the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
