package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Run groups the spans of one
// seed-run (0 for spans that serve several runs, such as a world build).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced pass runs the same code with every call a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// newRun allocates a seed-run id.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.named(name) {
		sum += s.dur()
	}
	return sum
}

// meanMS is the mean duration in milliseconds of the spans called name.
func (t *tracer) meanMS(name string) float64 {
	return ratio(float64(t.total(name))/1e6, float64(len(t.named(name))))
}

// totalSelf sums the self time of every span called name.
func (t *tracer) totalSelf(name string) time.Duration {
	t.mu.Lock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.named(name) {
		sum += selfTime(s, children[s.ID])
	}
	return sum
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Overlapping children count once; child time outside
// the parent's interval does not count.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
