package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, so the helper
// refuses it rather than print a number.
const minBeyond = 10

// errTooFewSamples is returned for a percentile the sample cannot
// support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie
// above it. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	n := len(xs)
	// The epsilon keeps 99.9·10000/100 from rounding up a rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %w", p, n, errTooFewSamples)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count). Unlike percentile it needs only one sample: the
// median is reported for every timing, the tails only where the sample
// supports them. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// minSecondOps is the fewest ops a second of the window needs for its
// own median in secondsMedian.
const minSecondOps = 100

// secondsMedian is the median latency of a window that holds at least
// minSecondOps ops in each of three or more of its seconds: the median,
// over those seconds, of each second's median. On the VM this benchmark
// was built on, the host slows the guest in bumps of a few seconds;
// such a bump pulls the pooled median of the window towards its own,
// but leaves this one where it was while it covers fewer than half of
// the seconds. A window with fewer such seconds (the
// mechanism's dozen solves) gets the pooled median. at[i] is the
// second in which latency lat[i] started.
func secondsMedian(lat []float64, at []int) float64 {
	bySecond := map[int][]float64{}
	for i, x := range lat {
		bySecond[at[i]] = append(bySecond[at[i]], x)
	}
	var medians []float64
	for _, xs := range bySecond {
		if len(xs) >= minSecondOps {
			medians = append(medians, median(xs))
		}
	}
	if len(medians) < 3 {
		return median(append([]float64(nil), lat...))
	}
	return median(medians)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

// serverTimingApp extracts the app;dur= entry (milliseconds) of a
// Server-Timing header value.
func serverTimingApp(header string) (float64, bool) {
	for _, entry := range strings.Split(header, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if strings.TrimSpace(parts[0]) != "app" {
			continue
		}
		for _, param := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil || d < 0 {
				return 0, false
			}
			return d, true
		}
	}
	return 0, false
}

// decision is the body of an admit or price answer.
type decision struct {
	Admitted  bool     `json:"admitted"`
	ID        int64    `json:"id"`
	Reason    string   `json:"reason"`
	Price     *float64 `json:"price"`
	Path      []int    `json:"path"`
	ElapsedMs *float64 `json:"elapsedMs"`
}

// parseDecision decodes an admit or price answer, which must carry the
// server-side elapsedMs.
func parseDecision(body []byte) (decision, error) {
	var d decision
	if err := json.Unmarshal(body, &d); err != nil {
		return d, fmt.Errorf("decoding decision: %w", err)
	}
	if d.ElapsedMs == nil {
		return d, errors.New("decision carries no elapsedMs")
	}
	return d, nil
}

// exposition is a parsed Prometheus text scrape: every sample keyed by
// its series ("name" or "name{labels}" exactly as exposed).
type exposition map[string]float64

// parseExposition reads the text format ufpserve's /metrics serves.
func parseExposition(text string) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric name, across all label sets.
// A histogram's _sum and _count are their own names.
func (e exposition) family(name string) float64 {
	s := 0.0
	for series, v := range e {
		if series == name || strings.HasPrefix(series, name+"{") {
			s += v
		}
	}
	return s
}

// labeled returns the series of name whose labels include label="value".
func (e exposition) labeled(name, label, value string) float64 {
	want := label + `="` + value + `"`
	s := 0.0
	for series, v := range e {
		if strings.HasPrefix(series, name+"{") && strings.Contains(series, want) {
			s += v
		}
	}
	return s
}
