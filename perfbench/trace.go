package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Trace; Parent is the ID of the span that caused it (0
// for the operation's root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder was made
	End    int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced passes run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its ID, which names it as a parent.
// For a root span pass trace 0: the root's own ID becomes the trace.
func (r *recorder) add(trace, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	if trace == 0 {
		trace = id
	}
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// httpOp records one HTTP call as a root span with the layers the
// server reports nested inside it: ufpserve's app;dur, and inside that
// the layer's own elapsedMs (session op or engine solve) when the
// answer carries one (elapsed < 0: none). The server reports only
// durations, so each child is centred in its parent; the self time of
// every span, which is what the per-layer figures use, does not depend
// on that placement.
func (r *recorder) httpOp(kind string, res result, inner string, elapsed float64) {
	if r == nil {
		return
	}
	root := r.add(0, 0, "http."+kind, res.sent, res.done)
	if res.appMs < 0 {
		return
	}
	app := time.Duration(res.appMs * float64(time.Millisecond))
	appStart := res.sent.Add((res.done.Sub(res.sent) - app) / 2)
	appID := r.add(root, root, "ufpserve.app", appStart, appStart.Add(app))
	if elapsed < 0 {
		return
	}
	in := time.Duration(elapsed * float64(time.Millisecond))
	inStart := appStart.Add((app - in) / 2)
	r.add(root, appID, inner, inStart, inStart.Add(in))
}

// durations returns the lengths (ms) of all spans named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, for each span named name, its duration minus the
// part of it its children cover (ms). With roots given, only spans of
// operations whose root span has one of those names count.
func (r *recorder) selfTimes(name string, roots ...string) []float64 {
	children := map[int64][][2]int64{}
	rootName := map[int64]string{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		} else {
			rootName[s.Trace] = s.Name
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name != name || (len(roots) > 0 && !slices.Contains(roots, rootName[s.Trace])) {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End))/1e6)
	}
	return out
}

// covered returns how much of [lo,hi) the union of ivs spans.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
