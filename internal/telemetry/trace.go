package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// TraceEvent is the decoded form of one JSONL span line. Attribute
// values are float64 for numbers and string otherwise, mirroring the
// Attr union on the emit side.
type TraceEvent struct {
	Span    string         `json:"span"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Num returns the named numeric attribute (0, false when absent or not
// numeric).
func (e *TraceEvent) Num(key string) (float64, bool) {
	v, ok := e.Attrs[key].(float64)
	return v, ok
}

// Str returns the named string attribute ("", false when absent).
func (e *TraceEvent) Str(key string) (string, bool) {
	v, ok := e.Attrs[key].(string)
	return v, ok
}

// ReadTrace decodes a JSONL span stream (as written by a Tracer) in
// emission order. Blank lines are skipped; a malformed line is an error.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var e TraceEvent
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// SpanStats aggregates one span name across a trace.
type SpanStats struct {
	Count    int
	TotalUS  int64
	AttrSums map[string]float64 // numeric attrs summed over spans
}

// TraceSummary is the replayable aggregate of a JSONL trace: exactly the
// numbers the live registry accumulated, recomputed from the event
// stream (the round-trip tests assert the two agree).
type TraceSummary struct {
	Spans map[string]*SpanStats
}

// Summarize aggregates a decoded trace.
func Summarize(events []TraceEvent) *TraceSummary {
	s := &TraceSummary{Spans: make(map[string]*SpanStats)}
	for i := range events {
		e := &events[i]
		st := s.Spans[e.Span]
		if st == nil {
			st = &SpanStats{AttrSums: make(map[string]float64)}
			s.Spans[e.Span] = st
		}
		st.Count++
		st.TotalUS += e.DurUS
		for k, v := range e.Attrs {
			if f, ok := v.(float64); ok {
				st.AttrSums[k] += f
			}
		}
	}
	return s
}

// AttrSum returns the sum of a numeric attribute over all spans with the
// given name (0 when the span never occurred).
func (s *TraceSummary) AttrSum(span, key string) float64 {
	if st := s.Spans[span]; st != nil {
		return st.AttrSums[key]
	}
	return 0
}

// Count returns how many spans with the given name the trace holds.
func (s *TraceSummary) Count(span string) int {
	if st := s.Spans[span]; st != nil {
		return st.Count
	}
	return 0
}

// Table renders the per-span aggregate as an aligned operator table:
// span name, count, total and mean wall time, then each summed numeric
// attribute.
func (s *TraceSummary) Table() string {
	names := make([]string, 0, len(s.Spans))
	for n := range s.Spans {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %12s %12s  %s\n", "span", "count", "total_ms", "mean_ms", "attr sums")
	for _, n := range names {
		st := s.Spans[n]
		mean := float64(st.TotalUS) / 1000 / float64(st.Count)
		keys := make([]string, 0, len(st.AttrSums))
		for k := range st.AttrSums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var attrs []string
		for _, k := range keys {
			attrs = append(attrs, fmt.Sprintf("%s=%g", k, st.AttrSums[k]))
		}
		fmt.Fprintf(&b, "%-22s %8d %12.3f %12.3f  %s\n",
			n, st.Count, float64(st.TotalUS)/1000, mean, strings.Join(attrs, " "))
	}
	return b.String()
}

// CriticalStep is one round of a coordination's critical path: the
// shard whose solve finished last and therefore bounded the round's
// wall time (rounds are barriers — the round ends when its slowest
// shard does).
type CriticalStep struct {
	Round  int
	Shard  int
	DurUS  int64 // the critical shard's solve time
	Solves int   // shard solves this round
}

// CoordinationPath is the critical-path decomposition of one coordinate
// span: per round, the dominating shard. CriticalUS sums the per-round
// critical solves — the fraction of DurUS it covers is how much of the
// coordination was spent inside shard QPs (the rest is quota pricing,
// scatter/gather, and scheduling).
type CoordinationPath struct {
	ID         uint64
	DurUS      int64
	Shards     int
	Rounds     int
	Converged  bool
	CriticalUS int64
	Steps      []CriticalStep
}

// CriticalPaths analyzes the span tree of a decoded trace: for every
// coordinate span, its shard_solve children are grouped by round and
// the latest-finishing (longest) solve per round becomes the critical
// step. Coordinations without shard_solve children yield no entry.
// Paths come back in trace order. Since the coordinated solver was
// retired no run emits these spans, so on a current trace the result is
// empty; the function stays for the benchmark module.
func CriticalPaths(events []TraceEvent) []CoordinationPath {
	children := make(map[uint64][]*TraceEvent)
	for i := range events {
		e := &events[i]
		if e.Span == SpanShardSolve {
			children[e.Parent] = append(children[e.Parent], e)
		}
	}
	var paths []CoordinationPath
	for i := range events {
		e := &events[i]
		if e.Span != SpanCoordinate {
			continue
		}
		kids := children[e.ID]
		if len(kids) == 0 {
			continue
		}
		p := CoordinationPath{ID: e.ID, DurUS: e.DurUS}
		if n, ok := e.Num("shards"); ok {
			p.Shards = int(n)
		}
		if n, ok := e.Num("rounds"); ok {
			p.Rounds = int(n)
		}
		if s, ok := e.Str("converged"); ok {
			p.Converged = s == "true"
		}
		byRound := make(map[int]*CriticalStep)
		maxRound := 0
		for _, k := range kids {
			round := 0
			if n, ok := k.Num("round"); ok {
				round = int(n)
			}
			if round > maxRound {
				maxRound = round
			}
			st := byRound[round]
			if st == nil {
				st = &CriticalStep{Round: round, Shard: -1}
				byRound[round] = st
			}
			st.Solves++
			if k.DurUS >= st.DurUS {
				st.DurUS = k.DurUS
				if n, ok := k.Num("shard"); ok {
					st.Shard = int(n)
				}
			}
		}
		for r := 0; r <= maxRound; r++ {
			if st := byRound[r]; st != nil {
				p.Steps = append(p.Steps, *st)
				p.CriticalUS += st.DurUS
			}
		}
		paths = append(paths, p)
	}
	return paths
}

// FormatDegradationSummary renders the one-line operator summary of a
// run's degradation ladder activity. It is THE formatter — sim.Result
// and the trace-summary replay both call it, so the two can only agree
// byte for byte. loose counts the steps whose plan was accepted at the
// solver's loosened tolerance after the iteration cap: they are not
// degraded, but a run with any is not called clean, and the line ends
// ", N loose".
func FormatDegradationSummary(policy string, steps, degraded, anytime, soft, hold, loose int, shed float64) string {
	var line string
	switch {
	case degraded == 0 && loose == 0:
		return fmt.Sprintf("%s: all %d steps clean", policy, steps)
	case degraded == 0:
		line = fmt.Sprintf("%s: %d/%d steps clean", policy, steps-loose, steps)
	default:
		line = fmt.Sprintf("%s: %d/%d steps degraded (anytime=%d soft=%d hold=%d), shed %.1f req/s total",
			policy, degraded, steps, anytime, soft, hold, shed)
	}
	if loose > 0 {
		line += fmt.Sprintf(", %d loose", loose)
	}
	return line
}

// DegradationFromTrace recomputes the degradation summary line from a
// trace: the run span carries policy and step count, and each period
// span carries its ladder outcome (mode, shed, loose).
// Returns ok=false when the trace has no run span.
func DegradationFromTrace(events []TraceEvent) (line string, ok bool) {
	var policy string
	var steps int
	found := false
	var degraded, anytime, soft, hold, loose int
	var shed float64
	for i := range events {
		e := &events[i]
		switch e.Span {
		case SpanRun:
			if p, ok := e.Str("policy"); ok {
				policy = p
			}
			if n, ok := e.Num("steps"); ok {
				steps = int(n)
			}
			found = true
		case SpanPeriod:
			mode, _ := e.Str("mode")
			if mode != "" && mode != "none" {
				degraded++
			}
			switch mode {
			case "anytime":
				anytime++
			case "soft":
				soft++
			case "hold":
				hold++
			}
			if v, ok := e.Num("shed"); ok {
				shed += v
			}
			if v, _ := e.Num("loose"); v > 0 {
				loose++
			}
		}
	}
	if !found {
		return "", false
	}
	return FormatDegradationSummary(policy, steps, degraded, anytime, soft, hold, loose, shed), true
}
