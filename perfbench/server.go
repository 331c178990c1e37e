package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one ufpserve process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // the process's exit status, valid after exited
	log    *os.File
}

// startServer launches bin with flags on a free loopback port and
// returns once /v1/readyz answers 200. The request log goes to a file
// in dir, so the server never blocks on a full pipe.
func startServer(bin, dir string, flags []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "ufpserve.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies, the kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitReady(limit time.Duration) error {
	c := s.dial()
	defer c.close()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("ufpserve exited before it was ready: %v (see %s)", s.err, s.log.Name())
		default:
		}
		if c.do("GET", "/v1/readyz", nil).status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ufpserve was not ready within " + limit.String())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading server memory: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTime is the CPU time the server's threads have run, summed from
// each thread's /proc schedstat. With paravirtual steal accounting the
// kernel leaves out the time the hypervisor gave to other guests, so a
// host that slows this machine's CPUs down stretches the server's wall
// times but not this figure. Go keeps its threads until exit, so no
// thread's time is lost between two readings. The kernel brings a
// running thread's figure up to date only at a scheduler tick (4 ms
// at HZ=250), so callers read it while the server waits for the next op in
// a closed loop, or over a whole window.
func (s *server) cpuTime() (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading server threads: %w", err)
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread has just exited
		}
		d, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// parseSchedstat reads the run time (the first field, in nanoseconds)
// of a /proc/<pid>/task/<tid>/schedstat line.
func parseSchedstat(line string) (time.Duration, error) {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return 0, fmt.Errorf("schedstat %q: want 3 fields", line)
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || ns < 0 {
		return 0, fmt.Errorf("schedstat %q: bad run time", line)
	}
	return time.Duration(ns), nil
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within ten seconds, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// conn is one keep-alive HTTP/1.1 connection, driven synchronously by
// the goroutine that owns it. net/http's client would add a reader and
// a writer goroutine per connection; on two cores those compete with
// the server and with the open loop's pacing, so each load-generating
// goroutine here owns exactly one conn and no helper goroutines.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	buf  []byte
}

func (s *server) dial() *conn { return &conn{addr: strings.TrimPrefix(s.base, "http://")} }

// do sends one request and reads the whole answer. A transport error is
// reported as status 0, which callers count as a failed op; the next
// call redials.
func (c *conn) do(method, path string, body []byte) (r result) {
	r = result{appMs: -1, sent: time.Now()}
	defer func() { r.done = time.Now() }()
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return r
		}
		c.c, c.r = nc, bufio.NewReader(nc)
	}
	c.buf = append(c.buf[:0], method...)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)
	resp, err := c.roundTrip(method)
	if err != nil {
		c.close()
		return r
	}
	r.status, r.body = resp.status, resp.body
	if d, ok := serverTimingApp(resp.timing); ok {
		r.appMs = d
	}
	return r
}

type answer struct {
	status int
	body   []byte
	timing string
}

func (c *conn) roundTrip(method string) (answer, error) {
	if _, err := c.c.Write(c.buf); err != nil {
		return answer{}, err
	}
	resp, err := http.ReadResponse(c.r, &http.Request{Method: method})
	if err != nil {
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, err
	}
	if resp.Close {
		c.close()
	}
	return answer{resp.StatusCode, body, resp.Header.Get("Server-Timing")}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) post(path string, body []byte) result { return c.do("POST", path, body) }

// get fetches a path and returns the body of a 200 answer.
func (c *conn) get(path string) ([]byte, error) {
	r := c.do("GET", path, nil)
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, r.status, bytes.TrimSpace(r.body))
	}
	return r.body, nil
}

// scrape fetches and parses /metrics.
func (c *conn) scrape() (exposition, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body))
}

// result is one HTTP call as the client saw it.
type result struct {
	status int
	body   []byte
	sent   time.Time
	done   time.Time
	appMs  float64 // Server-Timing app;dur, -1 when absent
}

func (r result) wallMs() float64 { return ms(r.done.Sub(r.sent)) }

func (r result) ok() bool { return r.status >= 200 && r.status < 300 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
