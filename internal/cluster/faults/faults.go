package faults

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Kind enumerates the fault taxonomy. The first six kinds are
// injectable (they may appear in a Plan); Timeout is detected-only,
// reported by the transport when a receive deadline expires.
type Kind uint8

const (
	Drop Kind = iota
	Delay
	Duplicate
	Corrupt
	Slow
	Crash
	Timeout

	nKinds
	nInjectable = Crash + 1 // Drop..Crash may appear in a Plan
)

// String returns the spec-string name of the kind.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "dup"
	case Corrupt:
		return "corrupt"
	case Slow:
		return "slow"
	case Crash:
		return "crash"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Rule is one clause of a fault plan.
type Rule struct {
	// Kind selects the fault.
	Kind Kind
	// Rate is the per-delivery-attempt Bernoulli probability for the
	// message kinds (drop, delay, dup, corrupt).
	Rate float64
	// Delay is the added latency of delay and slow rules.
	Delay time.Duration
	// Node is the target of slow and crash rules.
	Node int
	// At is the 1-based multiply index at which a crash rule fires.
	At int64
}

// String renders the rule in the spec grammar accepted by Parse.
func (r Rule) String() string {
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'g', -1, 64)
	}
	rate := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch r.Kind {
	case Drop, Duplicate, Corrupt:
		return fmt.Sprintf("%s:rate=%s", r.Kind, rate(r.Rate))
	case Delay:
		return fmt.Sprintf("delay:rate=%s,ms=%s", rate(r.Rate), ms(r.Delay))
	case Slow:
		return fmt.Sprintf("slow:node=%d,ms=%s", r.Node, ms(r.Delay))
	case Crash:
		return fmt.Sprintf("crash:node=%d,at=%d", r.Node, r.At)
	}
	return r.Kind.String()
}

// Plan is an ordered list of fault rules. For message faults the
// first rule that fires on a given delivery attempt wins.
type Plan struct {
	Rules []Rule
}

// String renders the plan in the spec grammar; Parse(p.String()) is
// the identity.
func (p *Plan) String() string {
	var b strings.Builder
	for i, r := range p.Rules {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(r.String())
	}
	return b.String()
}

// ChaosSpec is the -chaos preset: low-rate message chaos on every
// link, one slow node, and one deterministic crash early in the run.
const ChaosSpec = "drop:rate=0.02;delay:rate=0.02,ms=1;dup:rate=0.01;corrupt:rate=0.01;slow:node=0,ms=0.2;crash:node=1,at=5"

// Parse builds a Plan from a spec string: semicolon-separated
// clauses, each "kind:key=value,...". The grammar:
//
//	drop:rate=P            lose a delivery attempt with probability P
//	delay:rate=P,ms=D      delay an attempt by D ms with probability P (ms defaults to 1)
//	dup:rate=P             deliver an attempt twice with probability P
//	corrupt:rate=P         damage an attempt's payload with probability P
//	slow:node=N,ms=D       node N adds D ms to every multiply
//	crash:node=N,at=K      node N crashes at its K-th multiply (fires once)
//
// Rates must lie in (0, 1]; ms must be positive, between a nanosecond
// and an hour; node and at must be non-negative (at >= 1). Malformed
// specs return descriptive errors.
func Parse(spec string) (*Plan, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: spec %q contains no clauses", spec)
	}
	return &Plan{Rules: rules}, nil
}

// maxDelayMS bounds delay and slow rules at one hour.
const maxDelayMS = float64(time.Hour / time.Millisecond)

func parseClause(clause string) (Rule, error) {
	head, rest, _ := strings.Cut(clause, ":")
	head = strings.TrimSpace(head)

	params := map[string]string{}
	if strings.TrimSpace(rest) != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return Rule{}, fmt.Errorf("faults: clause %q: parameter %q is not key=value", clause, kv)
			}
			if _, dup := params[k]; dup {
				return Rule{}, fmt.Errorf("faults: clause %q: duplicate parameter %q", clause, k)
			}
			params[k] = v
		}
	}
	rate := func() (float64, error) {
		s, ok := params["rate"]
		if !ok {
			return 0, fmt.Errorf("faults: clause %q: %s requires rate=<p> with p in (0,1]", clause, head)
		}
		delete(params, "rate")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !(v > 0) || v > 1 {
			return 0, fmt.Errorf("faults: clause %q: rate %q must be a number in (0,1]", clause, s)
		}
		return v, nil
	}
	msDur := func(def time.Duration) (time.Duration, error) {
		s, ok := params["ms"]
		if !ok {
			if def > 0 {
				return def, nil
			}
			return 0, fmt.Errorf("faults: clause %q: %s requires ms=<milliseconds>", clause, head)
		}
		delete(params, "ms")
		// Rounded, not truncated, and bounded, so that every accepted
		// delay is a positive Duration whose printed form (Rule.String)
		// parses back to itself.
		v, err := strconv.ParseFloat(s, 64)
		ns := math.Round(v * float64(time.Millisecond))
		if err != nil || !(ns >= 1) || v > maxDelayMS {
			return 0, fmt.Errorf("faults: clause %q: ms %q must be a positive number, one nanosecond to one hour", clause, s)
		}
		return time.Duration(ns), nil
	}
	intParam := func(key string, min int64) (int64, error) {
		s, ok := params[key]
		if !ok {
			return 0, fmt.Errorf("faults: clause %q: %s requires %s=<n>", clause, head, key)
		}
		delete(params, key)
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < min {
			return 0, fmt.Errorf("faults: clause %q: %s %q must be an integer >= %d", clause, key, s, min)
		}
		return v, nil
	}
	noLeftovers := func() error {
		for k := range params {
			return fmt.Errorf("faults: clause %q: unknown parameter %q", clause, k)
		}
		return nil
	}

	var r Rule
	var err error
	switch head {
	case "drop", "dup", "corrupt":
		switch head {
		case "drop":
			r.Kind = Drop
		case "dup":
			r.Kind = Duplicate
		case "corrupt":
			r.Kind = Corrupt
		}
		if r.Rate, err = rate(); err != nil {
			return Rule{}, err
		}
	case "delay":
		r.Kind = Delay
		if r.Rate, err = rate(); err != nil {
			return Rule{}, err
		}
		if r.Delay, err = msDur(time.Millisecond); err != nil {
			return Rule{}, err
		}
	case "slow":
		r.Kind = Slow
		node, err := intParam("node", 0)
		if err != nil {
			return Rule{}, err
		}
		r.Node = int(node)
		if r.Delay, err = msDur(0); err != nil {
			return Rule{}, err
		}
	case "crash":
		r.Kind = Crash
		node, err := intParam("node", 0)
		if err != nil {
			return Rule{}, err
		}
		r.Node = int(node)
		if r.At, err = intParam("at", 1); err != nil {
			return Rule{}, err
		}
	default:
		return Rule{}, fmt.Errorf("faults: clause %q: unknown kind %q (want drop, delay, dup, corrupt, slow, crash)", clause, head)
	}
	if err := noLeftovers(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// Verdict is the injector's decision for one delivery attempt.
type Verdict uint8

const (
	// VDeliver passes the attempt through unharmed.
	VDeliver Verdict = iota
	// VDrop loses the attempt; the sender's retry loop handles it.
	VDrop
	// VDelay delivers after the returned latency.
	VDelay
	// VDuplicate delivers the attempt twice.
	VDuplicate
	// VCorrupt delivers a damaged payload the receiver must reject.
	VCorrupt
)

// Every injected fault ticks a per-kind counter in obs.Default; these
// are the "injected" side of the chaos ledger (the cluster transport
// counts detections, core counts recoveries).
var injectedCounters = func() [nInjectable]*obs.Counter {
	var a [nInjectable]*obs.Counter
	for k := Kind(0); k < nInjectable; k++ {
		a[k] = obs.Default.Counter(obs.Label("faults_injected_total", "kind", k.String()))
	}
	return a
}()

// Injector binds a Plan to a seed and hands out deterministic
// verdicts. Safe for concurrent use.
type Injector struct {
	plan *Plan
	seed uint64
	// fired marks consumed crash rules (index-aligned with Rules).
	fired []atomic.Bool
	// counts tallies injected faults per kind for this injector.
	counts [nInjectable]atomic.Int64

	// Events, if set before use, receives one "fault_injected" JSONL
	// record per injected fault.
	Events *obs.EventLog
}

// NewInjector binds the plan to a seed. Verdicts depend only on
// (seed, rule, src, dst, seq, attempt).
func (p *Plan) NewInjector(seed uint64) *Injector {
	return &Injector{plan: p, seed: seed, fired: make([]atomic.Bool, len(p.Rules))}
}

// uniform returns the deterministic uniform deviate of one
// (rule, message attempt) coordinate.
func (in *Injector) uniform(rule, src, dst int, seq int64, attempt int) float64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range [...]uint64{uint64(rule), uint64(src), uint64(dst), uint64(seq), uint64(attempt)} {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return rng.Substream(in.seed, h).Float64()
}

func (in *Injector) note(k Kind, fields map[string]any) {
	in.counts[k].Add(1)
	injectedCounters[k].Inc()
	if in.Events != nil {
		if fields == nil {
			fields = map[string]any{}
		}
		fields["kind"] = k.String()
		in.Events.Emit("fault_injected", fields)
	}
}

// Injected returns how many faults of the kind this injector has
// injected so far.
func (in *Injector) Injected(k Kind) int64 {
	if in == nil || k >= nInjectable {
		return 0
	}
	return in.counts[k].Load()
}

// InjectedTotal sums Injected over all kinds.
func (in *Injector) InjectedTotal() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for k := Kind(0); k < nInjectable; k++ {
		t += in.counts[k].Load()
	}
	return t
}

// Message returns the verdict for one delivery attempt of the
// message seq from src to dst. The duration is the added latency for
// VDelay. A nil injector always delivers.
func (in *Injector) Message(src, dst int, seq int64, attempt int) (Verdict, time.Duration) {
	if in == nil {
		return VDeliver, 0
	}
	for i, r := range in.plan.Rules {
		switch r.Kind {
		case Drop, Delay, Duplicate, Corrupt:
		default:
			continue
		}
		if in.uniform(i, src, dst, seq, attempt) >= r.Rate {
			continue
		}
		fields := map[string]any{"src": src, "dst": dst, "seq": seq, "attempt": attempt}
		in.note(r.Kind, fields)
		switch r.Kind {
		case Drop:
			return VDrop, 0
		case Delay:
			return VDelay, r.Delay
		case Duplicate:
			return VDuplicate, 0
		case Corrupt:
			return VCorrupt, 0
		}
	}
	return VDeliver, 0
}

// Crash reports whether node should crash at its nth (1-based)
// multiply. Each crash rule fires at most once per injector, so a
// replayed step after recovery does not crash again.
func (in *Injector) Crash(node int, nth int64) bool {
	if in == nil {
		return false
	}
	for i, r := range in.plan.Rules {
		if r.Kind != Crash || r.Node != node || nth < r.At {
			continue
		}
		if in.fired[i].CompareAndSwap(false, true) {
			in.note(Crash, map[string]any{"node": node, "multiply": nth})
			return true
		}
	}
	return false
}

// SlowDelay returns the extra latency node pays per multiply (the sum
// of its slow rules), counting one injected slow fault per call when
// positive.
func (in *Injector) SlowDelay(node int) time.Duration {
	if in == nil {
		return 0
	}
	var d time.Duration
	for _, r := range in.plan.Rules {
		if r.Kind == Slow && r.Node == node {
			d += r.Delay
		}
	}
	if d > 0 {
		in.note(Slow, map[string]any{"node": node, "ms": float64(d) / float64(time.Millisecond)})
	}
	return d
}

// Error is a failure caused (or detected) by the fault layer: a node
// crash, a message lost beyond its retry budget, or a receive
// deadline expiring. Recovery code uses IsFault to tell these apart
// from genuine programming or numerical errors.
type Error struct {
	// Kind is the fault class (Crash, Drop, Timeout, ...).
	Kind Kind
	// Node is the node that failed or detected the failure; -1 if not
	// applicable.
	Node int
	// Src and Dst are the message endpoints; -1 if not applicable.
	Src, Dst int
	// Seq is the multiply sequence number of the failed message.
	Seq int64
	// Msg is the human-readable description.
	Msg string
}

func (e *Error) Error() string { return "faults: " + e.Msg }

// IsFault reports whether err is (or wraps) a fault-layer error.
func IsFault(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}
