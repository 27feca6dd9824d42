package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpansKept bounds the raw spans a traced repetition keeps for its
// trace file; every span still lands in the per-name aggregate.
const maxSpansKept = 50_000

// span is one timed call from the harness into a layer. Spans of one client
// operation share Op; Parent is the enclosing span's ID (0 for the root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanAgg struct {
	count       int
	total, self int64
}

type openSpan struct {
	id       int32
	name     string
	start    int64
	children int64 // ns covered by closed child spans
}

type walEvent struct {
	name string
	at   int64
}

// tracer records spans from the single client goroutine. WAL events arrive
// from the WAL's own goroutines through the counting injector; they become
// child spans of whichever harness span is open when they are drained, each
// lasting until the next event (or the end of that span). A nil tracer is
// tracing switched off.
type tracer struct {
	t0     time.Time
	nextID int32
	op     int32
	stack  []openSpan
	spans  []span
	agg    map[string]*spanAgg

	mu     sync.Mutex
	events []walEvent
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanAgg{}, spans: make([]span, 0, maxSpansKept)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens the root span of a new client operation. WAL events that
// arrived since the last span closed (background rotation, setup) belong to
// no harness call and are dropped.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
	t.op++
	t.begin(name)
}

// reset forgets everything recorded so far; the measured phase starts with
// an empty aggregate.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
	t.nextID, t.op, t.stack, t.spans = 0, 0, t.stack[:0], t.spans[:0]
	t.agg = map[string]*spanAgg{}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, start: t.now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]

	t.mu.Lock()
	evs := t.events
	t.events = nil
	t.mu.Unlock()
	for i, ev := range evs {
		evEnd := end
		if i+1 < len(evs) {
			evEnd = evs[i+1].at
		}
		t.nextID++
		t.record(span{ID: t.nextID, Parent: top.id, Op: t.op, Name: ev.name, Start: ev.at, End: evEnd}, evEnd-ev.at)
		top.children += evEnd - ev.at
	}

	parent := int32(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
		t.stack[n-1].children += end - top.start
	}
	t.record(span{ID: top.id, Parent: parent, Op: t.op, Name: top.name, Start: top.start, End: end},
		end-top.start-top.children)
}

func (t *tracer) record(s span, self int64) {
	if len(t.spans) < maxSpansKept {
		t.spans = append(t.spans, s)
	}
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	a.count++
	a.total += s.End - s.Start
	a.self += self
}

// event is called by the counting injector, possibly off the client
// goroutine.
func (t *tracer) event(name string) {
	if t == nil {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.events = append(t.events, walEvent{name, at})
	t.mu.Unlock()
}

// mean returns the mean duration of the named span, zero if none ran.
func (t *tracer) mean(name string) time.Duration {
	a := t.agg[name]
	if a == nil || a.count == 0 {
		return 0
	}
	return time.Duration(a.total / int64(a.count))
}

func (t *tracer) total(name string) time.Duration {
	if a := t.agg[name]; a != nil {
		return time.Duration(a.total)
	}
	return 0
}

// budgetRow is one line of the budget table: where the measured phase's
// time went, by span name. Share is self time over the phase's wall time.
type budgetRow struct {
	Layer  string  `json:"layer"`
	Span   string  `json:"span"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share"`
}

// budget freezes the aggregate into rows, largest self time first. Call it
// at the end of the measured phase so probe spans stay out of it.
func (t *tracer) budget(measuredS float64) []budgetRow {
	rows := make([]budgetRow, 0, len(t.agg))
	for name, a := range t.agg {
		layer, _, _ := strings.Cut(name, ".")
		rows = append(rows, budgetRow{
			Layer: layer, Span: name, Count: a.count,
			TotalS: float64(a.total) / 1e9, SelfS: float64(a.self) / 1e9,
			Share: float64(a.self) / 1e9 / measuredS,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Span < rows[j].Span
	})
	return rows
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Kept     int    `json:"spans_kept"`
		Seen     int32  `json:"spans_seen"`
		Spans    []span `json:"spans"`
	}{workload, len(t.spans), t.nextID, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), doc, 0o644)
}
