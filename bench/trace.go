package main

import (
	"sort"
	"sync"
	"time"
)

// spanName says which layer boundary a span was recorded at.
type spanName uint8

const (
	spanOp         spanName = iota // one timed op of a sequential workload
	spanBuild                      // Configuration.Build: hydro and neighbor
	spanMul                        // one multiply through a tracedOp
	spanFirstSolve                 // Config.FirstSolve
	spanGeneralMul                 // Matrix.Mul in the gspmv workloads
	spanSymMul                     // SymMatrix.Mul in the gspmv workloads
	spanRequest                    // one served request, from due to answered
	spanQueueWait                  // Result.QueueWait
	spanSolve                      // Result.SolveTime
)

var spanNames = [...]string{
	"op", "hydro.build", "bcrs.mul", "core.first_solve", "bcrs.general_mul", "bcrs.sym_mul",
	"serve.request", "serve.queue_wait", "serve.solve",
}

// phase is the part of an SD step a multiply was made from.
type phase uint8

const (
	phaseNone phase = iota
	phaseCheb
	phaseGuess
	phaseFirst
	phaseSecond
)

var phaseNames = [...]string{"", "chebyshev", "calc_guesses", "first_solve", "second_solve"}

// span is one timed interval at a layer boundary. Spans are recorded
// from this directory only, around calls into the program's public
// functions; they are kept in memory and summarised when the run ends.
// The struct holds no pointers so that it can live outside the Go
// heap (see newSpanBuffer).
type span struct {
	name   spanName
	tag    phase
	m      uint16 // vector count of a multiply, 0 otherwise
	parent int32  // index of the enclosing span, -1 for a root
	op     int32  // op (or request) the span belongs to, -1 outside ops
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// maxSpans bounds a traced run: a minute of the busiest workload
// records about half of this.
const maxSpans = 1 << 20

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int // spans that did not fit
	free    func()
}

func newTracer() *tracer {
	spans, free := newSpanBuffer(maxSpans)
	return &tracer{spans: spans, free: free}
}

func (t *tracer) close() { t.free() }

// reset drops the spans recorded so far (those of set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
}

// add records a span and returns its index, or -1 when the buffer is
// full.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// track is the stack of spans one goroutine has open: a new span's
// parent is the innermost open span of its track.
type track struct {
	t    *tracer
	open []int
	op   int
}

func (t *tracer) track() *track { return &track{t: t, op: -1} }

func (k *track) begin(name spanName, tag phase, m int) int {
	parent := -1
	if n := len(k.open); n > 0 {
		parent = k.open[n-1]
	}
	id := k.t.add(span{name: name, tag: tag, m: uint16(m), parent: int32(parent), op: int32(k.op), start: now()})
	k.open = append(k.open, id)
	return id
}

func (k *track) end(id int) {
	end := now()
	k.open = k.open[:len(k.open)-1]
	if id < 0 {
		return
	}
	k.t.mu.Lock()
	k.t.spans[id].end = end
	k.t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// share is one row of a self-time table.
type share struct {
	key   string
	count int
	self  time.Duration
}

// selfShares groups self time by span name and phase, largest first,
// in one table per kind of root span: spans under timed ops, spans
// under served requests, and multiplies made by the server's
// dispatcher, which no span of this directory encloses.
func selfShares(spans []span) map[string][]share {
	self := selfTimes(spans)
	root := make([]int, len(spans))
	tables := map[string][]share{}
	idx := map[[2]string]int{}
	for i, s := range spans {
		root[i] = i
		if s.parent >= 0 {
			root[i] = root[s.parent] // a parent is recorded before its children
		}
		table := spanNames[spans[root[i]].name]
		key := spanNames[s.name]
		if s.tag != phaseNone {
			key += "[" + phaseNames[s.tag] + "]"
		}
		j, ok := idx[[2]string{table, key}]
		if !ok {
			j = len(tables[table])
			idx[[2]string{table, key}] = j
			tables[table] = append(tables[table], share{key: key})
		}
		tables[table][j].count++
		tables[table][j].self += self[i]
	}
	for _, rows := range tables {
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].self > rows[b].self })
	}
	return tables
}

// negativeSelf counts spans whose children cover more time than the
// span itself: 0 when every parent encloses its children, which is
// what makes the self times under an op add up to the op's time.
func negativeSelf(spans []span) int {
	n := 0
	for _, d := range selfTimes(spans) {
		if d < 0 {
			n++
		}
	}
	return n
}
