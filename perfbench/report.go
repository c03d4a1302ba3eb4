package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	name      string
	value     float64
	unit      string
	printOnly bool // shown in the human-readable lines, not in the JSON result
}

// report is what a run prints: every metric by name and unit, notes
// such as sample counts, and the op accounting.
type report struct {
	metrics []metric
	notes   []string
	ops     tally
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

// show adds a metric to the human-readable lines only.
func (r *report) show(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, printOnly: true})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.ops.failed == 0 }

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "%-32s %14d %s\n", "attempted", r.ops.attempted, "ops")
	fmt.Fprintf(w, "%-32s %14d %s\n", "failed", r.ops.failed, "ops")
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "error_share", ratio(float64(r.ops.failed), float64(r.ops.attempted)), "fraction")
	if r.ops.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", r.ops.firstErr)
	}
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
		if !m.printOnly {
			ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.ops.attempted,
		"failed":    r.ops.failed,
		"metrics":   ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// tally counts ops: attempted, failed (an error, a refusal or a wrong
// answer) and, among the failed, wrong answers.
type tally struct {
	attempted, failed, wrong int64
	firstErr                 error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) wrongAnswer(err error) {
	t.wrong++
	t.fail(err)
}

func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
}

// quantile returns the nearest-rank q-quantile of ds in microseconds,
// or 0 when ds is empty. ds is sorted in place.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	i = max(0, min(i, len(ds)-1))
	return float64(ds[i]) / float64(time.Microsecond)
}

func medianSeconds(ds []time.Duration) float64 {
	return quantile(ds, 0.5) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
