package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"perpos/internal/core"
	"perpos/internal/positioning"
)

// Tracing bounds: hop samples kept per node and session, spans kept per
// span-recording session, and events captured for the replays.
const (
	maxHopSamples = 2048
	maxSpans      = 4000
	maxCapture    = 20000
)

// span is one traced interval; times are ns since the traced phase
// began. Parent indexes the owning list (-1 for a root), Step is the
// step or lifecycle-op id the span belongs to.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Step   uint64
}

// tracer records the traced phase of a run from outside the program:
// a Graph.Tap on every live session times each emission, the
// benchmark's own subscriber times each delivery, and the drivers mark
// step and lifecycle-op boundaries.
//
// A hop is the time from one emission to the next along the causal
// chain: for a component's emission, from the newest input emission
// its spans name; for a source emission on the synchronous engines,
// from the session's previous event (the step start, an emission or a
// delivery); for a source emission on the async engine, from the
// previous emission of the same source step (the runner's own step
// start is not observable); for "app", from the newest position
// emission to the subscriber callback.
type tracer struct {
	t0    time.Time
	async bool
	// spanSessions is how many sessions (the first ones registered)
	// record spans; every session records hops and counts.
	spanSessions int

	mu       sync.Mutex
	sessions []*sessTrace
	ops      []span // lifecycle ops and their calls
	stepUs   []float64
}

func newTracer(async bool, spanSessions int) *tracer {
	return &tracer{t0: time.Now(), async: async, spanSessions: spanSessions}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// session registers one traced session. The first one registered also
// captures its emission stream and deliveries for the replays.
func (t *tracer) session(name string) *sessTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &sessTrace{
		t:       t,
		name:    name,
		capture: len(t.sessions) == 0,
		record:  len(t.sessions) < t.spanSessions,
		emits:   make(map[string]*emitRing),
		srcLast: make(map[string]srcMark),
		hops:    make(map[string][]float64),
		last:    -1,
		lastPos: -1,
		stepIdx: -1,
	}
	t.sessions = append(t.sessions, st)
	return st
}

// op records one lifecycle op and the calls it made, as a root span
// with one child per call.
func (t *tracer) op(id uint64, start int64, calls []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := len(t.ops)
	end := start
	for _, c := range calls {
		end = max(end, c.End)
	}
	t.ops = append(t.ops, span{Name: "op", Start: start, End: end, Parent: -1, Step: id})
	for _, c := range calls {
		c.Parent, c.Step = root, id
		t.ops = append(t.ops, c)
	}
}

// emitRing remembers when a node's recent logical times were emitted.
type emitRing struct {
	logical [16]core.LogicalTime
	at      [16]int64
	next    int
}

func (r *emitRing) put(l core.LogicalTime, t int64) {
	r.logical[r.next], r.at[r.next] = l, t
	r.next = (r.next + 1) % len(r.logical)
}

func (r *emitRing) lookup(l core.LogicalTime) (int64, bool) {
	for i := range r.logical {
		if r.logical[i] == l && r.at[i] != 0 {
			return r.at[i], true
		}
	}
	return 0, false
}

type srcMark struct {
	time time.Time
	at   int64
}

// sessTrace is one session's trace. The mutex matters on the async
// engine, where taps fire on every node's goroutine.
type sessTrace struct {
	t       *tracer
	name    string
	capture bool
	record  bool // records spans

	mu        sync.Mutex
	last      int64
	lastPos   int64
	step      uint64
	stepIdx   int
	emits     map[string]*emitRing
	srcLast   map[string]srcMark
	hops      map[string][]float64 // µs
	emissions int64
	positions int64
	spans     []span
	events    []core.TapEvent
	delivered []positioning.Position
}

// stepStart marks the start of a synchronous Step/StepN call.
func (st *sessTrace) stepStart(name string) {
	now := st.t.now()
	st.mu.Lock()
	st.step++
	st.last = now
	st.stepIdx = -1
	if st.record && len(st.spans) < maxSpans {
		st.stepIdx = len(st.spans)
		st.spans = append(st.spans, span{Name: name, Start: now, End: now, Parent: -1, Step: st.step})
	}
	st.mu.Unlock()
}

// stepEnd closes the step opened by stepStart; steps is the number of
// source steps the call made, for the per-step time.
func (st *sessTrace) stepEnd(start time.Time, steps int) {
	d := time.Since(start)
	now := st.t.now()
	st.mu.Lock()
	if st.stepIdx >= 0 {
		st.spans[st.stepIdx].End = now
	}
	st.mu.Unlock()
	st.t.mu.Lock()
	st.t.stepUs = append(st.t.stepUs, float64(d)/1e3/float64(steps))
	st.t.mu.Unlock()
}

// tap is the core.TapFunc registered on the session's graph.
func (st *sessTrace) tap(node string, s core.Sample) {
	now := st.t.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.emissions++
	from := int64(-1)
	switch {
	case len(s.Spans) > 0:
		for _, sp := range s.Spans {
			if r := st.emits[sp.Source]; r != nil {
				if at, ok := r.lookup(sp.To); ok && at > from {
					from = at
				}
			}
		}
	case !st.t.async:
		from = st.last
	default:
		if m, ok := st.srcLast[node]; ok && m.time.Equal(s.Time) {
			from = m.at
		} else {
			st.step++
		}
		st.srcLast[node] = srcMark{time: s.Time, at: now}
	}
	r := st.emits[node]
	if r == nil {
		r = &emitRing{}
		st.emits[node] = r
	}
	r.put(s.Logical, now)
	if s.Kind == positioning.KindPosition {
		st.lastPos = now
	}
	if from >= 0 {
		st.hopLocked(node, from, now)
	}
	st.last = now
	if st.capture && len(st.events) < maxCapture {
		st.events = append(st.events, core.TapEvent{ComponentID: node, Sample: s})
	}
}

// delivered is called by the workload's subscriber for every position
// the session's provider hands out.
func (st *sessTrace) deliver(p positioning.Position) {
	now := st.t.now()
	st.mu.Lock()
	st.positions++
	if st.lastPos >= 0 {
		st.hopLocked("app", st.lastPos, now)
	}
	st.last = now
	if st.capture && len(st.delivered) < maxCapture {
		st.delivered = append(st.delivered, p)
	}
	st.mu.Unlock()
}

func (st *sessTrace) hopLocked(node string, from, to int64) {
	if h := st.hops[node]; len(h) < maxHopSamples {
		st.hops[node] = append(h, float64(to-from)/1e3)
	}
	if st.record && len(st.spans) < maxSpans {
		parent := -1
		if !st.t.async {
			parent = st.stepIdx
		}
		st.spans = append(st.spans, span{Name: "hop:" + node, Start: from, End: to, Parent: parent, Step: st.step})
	}
}

// totals sums emissions and deliveries and merges hop samples over all
// traced sessions.
func (t *tracer) totals() (emissions, positions int64, hops map[string][]float64) {
	hops = make(map[string][]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.sessions {
		st.mu.Lock()
		emissions += st.emissions
		positions += st.positions
		for n, h := range st.hops {
			hops[n] = append(hops[n], h...)
		}
		st.mu.Unlock()
	}
	return emissions, positions, hops
}

// captured returns the session whose stream was captured.
func (t *tracer) captured() *sessTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[0]
}

// spanStat is one row of the per-layer table.
type spanStat struct {
	name        string
	count       int
	total, self float64 // µs
	p50, p99    float64 // µs
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its children cover.
func selfTimes(lists ...[]span) []spanStat {
	type acc struct {
		durs  []float64
		total float64
		self  float64
	}
	by := make(map[string]*acc)
	for _, spans := range lists {
		childCover := make([]int64, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 && s.Parent < len(spans) {
				p := spans[s.Parent]
				lo, hi := max(s.Start, p.Start), min(s.End, p.End)
				if hi > lo {
					childCover[s.Parent] += hi - lo
				}
			}
		}
		for i, s := range spans {
			a := by[s.Name]
			if a == nil {
				a = &acc{}
				by[s.Name] = a
			}
			d := float64(s.End-s.Start) / 1e3
			a.durs = append(a.durs, d)
			a.total += d
			a.self += max(d-float64(childCover[i])/1e3, 0)
		}
	}
	out := make([]spanStat, 0, len(by))
	for name, a := range by {
		out = append(out, spanStat{
			name: name, count: len(a.durs), total: a.total, self: a.self,
			p50: percentile(a.durs, 0.5), p99: percentile(a.durs, 0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// spanLists returns every recorded span list: each session's and the
// lifecycle ops.
func (t *tracer) spanLists() ([]string, [][]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := []string{"ops"}
	lists := [][]span{t.ops}
	for _, st := range t.sessions {
		st.mu.Lock()
		if len(st.spans) > 0 {
			names = append(names, st.name)
			lists = append(lists, st.spans)
		}
		st.mu.Unlock()
	}
	return names, lists
}

// writeSpans dumps every recorded span as JSON lines, with global ids
// so parents resolve across the file.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	names, lists := t.spanLists()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	base := 0
	for li, spans := range lists {
		for i, s := range spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + s.Parent
			}
			rec := map[string]any{
				"id": base + i, "parent": parent, "name": s.Name, "session": names[li],
				"start_ns": s.Start, "end_ns": s.End, "step": s.Step,
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
		base += len(spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints the per-layer table: span self times from the
// traced phase, then the replayed per-call timings.
func printTable(workload string, spans []spanStat, layer map[string]metric) {
	fmt.Printf("per-layer table (%s): traced spans, times in µs\n", workload)
	fmt.Printf("  %-28s %9s %11s %11s %10s %10s\n", "span", "count", "mean", "self mean", "p50", "p99")
	for _, s := range spans {
		fmt.Printf("  %-28s %9d %11.3f %11.3f %10.3f %10.3f\n", s.name, s.count,
			s.total/float64(s.count), s.self/float64(s.count), s.p50, s.p99)
	}
	keys := make([]string, 0, len(layer))
	for k := range layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("  per-layer metrics:")
	for _, k := range keys {
		fmt.Printf("  %-34s %14.4f %s\n", k, layer[k].Value, layer[k].Unit)
	}
}

// spanPath names the span dump of one traced run.
func spanPath(workload string, seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
