// Command perfbench is the repository benchmark. It boots one workload
// of the top-k store from seeded inputs, measures it for a fixed time
// and prints every metric by name and unit, then one JSON result line:
//
//	go run . --workload local-read --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced variant and reports the per-layer metrics instead.
// README.md describes the workloads and metrics. The exit code is 0 on
// a correct run, 1 if any answer was wrong or any op failed, 2 on bad
// flags or a set-up failure, and 3 when the run is invalid because the
// open-loop generator itself fell behind its schedule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rate     float64 // fleet-read open-loop rate, requests/s
	scale    int     // tests only: divide sizes by this
}

// errInvalidRun marks a run whose measurement cannot be trusted.
var errInvalidRun = errors.New("invalid run")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: local-read, local-mixed or fleet-read")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	fs.Float64Var(&o.rate, "fleet-rate", 0, "fleet-read open-loop rate in requests/s (fixed in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	rep, err := measure(o)
	if errors.Is(err, errInvalidRun) {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// clients is the closed-loop client count and the open-loop worker
// count: one per CPU, at most two (one per key owner).
func clients() int { return min(runtime.NumCPU(), meteredOwners-1) }

// measure runs one workload and returns its report.
func measure(o options) (*report, error) {
	sp, err := lookupSpec(o.workload)
	if err != nil {
		return nil, err
	}
	sp = sp.scaled(o.scale)
	if sp.members > 0 && o.rate <= 0 {
		return nil, fmt.Errorf("%s needs --fleet-rate", sp.name)
	}
	nc := clients()
	in := makeInputs(sp, o.seed)
	var tr *tracer
	if o.trace {
		tr = newTracer()
		sp.setups = 1
	}

	rep := &report{}
	rep.note("workload %s: n=%d seed=%d clients=%d seconds=%g trace=%v", sp.name, sp.n, o.seed, nc, o.seconds, o.trace)
	runtime.GC()
	heapBase := heapInUse()
	var sys *system
	var setupTimes []time.Duration
	for i := 0; i < sp.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		start := time.Now()
		sys, err = setup(sp, in.pts, nc, tr)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	defer sys.close()
	runtime.GC()
	heapMB := float64(int64(heapInUse())-int64(heapBase)) / 1e6
	rep.note("set-up times: %v", setupTimes)

	or := newOracle(in.pts)
	m, tl := meteredPass(sys.target, in.metered, sp.warm, or)
	rep.ops.merge(tl)
	rep.note("metered pass: %d queries, %d updates", m.queries, m.updates)

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		if err := tracedRun(sp, o, in, sys, tr, m, d, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// The timed phases. Latencies and throughput are medians over
	// windows of each phase.
	var reads, writes []windowStat
	var opsPerSec float64
	perSec := func(w windowStat) float64 { return w.opsPerSec }
	if sp.members > 0 {
		// Phase A: open loop at the fixed rate, for the latencies.
		ft := sys.target.(*fleetTarget)
		ol := openLoop(ft, drawQueries(in.owners[0], int(o.rate*d.Seconds()/2)+1), o.rate, nc, d/2)
		rep.ops.merge(ol.tally)
		if err := checkGenerator(ol, rep); err != nil {
			return nil, err
		}
		reads = ol.windows(windowsPerPhase)
		// Phase B: closed loop, for the throughput.
		cl := closedLoop(sys.target, opStreams(in.owners[:nc]), d/2)
		rep.ops.merge(cl.tally)
		opsPerSec = medianOver(cl.windows(windowsPerPhase), perSec)
	} else {
		cl := closedLoop(sys.target, opStreams(in.owners[:nc]), d)
		rep.ops.merge(cl.tally)
		reads = cl.windows(windowsPerPhase)
		opsPerSec = medianOver(reads, perSec)
		if sp.mixed {
			writes = reads
		}
	}
	if !sp.mixed {
		// The read workloads' write phase: closed loop of
		// insert-then-delete cycles.
		wl := closedLoop(sys.target, writeStreams(in.owners[:nc]), d/4)
		rep.ops.merge(wl.tally)
		writes = wl.windows(windowsPerPhase)
	}
	for i, w := range reads {
		rep.note("read window %d: %d reads, p50 %.0fus p99 %.0fus, %.0f ops/s", i, w.reads, w.readP50, w.readP99, w.opsPerSec)
	}
	for i, w := range writes {
		rep.note("write window %d: %d writes, p50 %.0fus p99 %.0fus", i, w.writes, w.writeP50, w.writeP99)
	}
	rep.add("setup_s", medianSeconds(setupTimes), "s")
	rep.add("ops_per_s", opsPerSec, "ops/s")
	rep.add("read_p50_us", medianOver(reads, func(w windowStat) float64 { return w.readP50 }), "us")
	// The p99s are printed but gate nothing: on the shared bench VM their
	// run-to-run spread is several times the largest allowed bound.
	rep.show("read_p99_us", medianOver(reads, func(w windowStat) float64 { return w.readP99 }), "us")
	rep.add("write_p50_us", medianOver(writes, func(w windowStat) float64 { return w.writeP50 }), "us")
	rep.show("write_p99_us", medianOver(writes, func(w windowStat) float64 { return w.writeP99 }), "us")
	rep.add("query_ios", ratio(float64(m.qIOs), float64(m.queries)), "blocks/op")
	rep.add("update_ios", ratio(float64(m.uIOs), float64(m.updates)), "blocks/op")
	rep.add("space_amp", spaceAmp(m), "ratio")
	rep.add("heap_mb", heapMB, "MB")
	return rep, nil
}

// windowsPerPhase is how many windows a timed phase is cut into.
const windowsPerPhase = 4

// spaceAmp is live blocks × B words × 8 bytes over 16 bytes per live
// point: the paper's linear-space claim as a ratio.
func spaceAmp(m meter) float64 {
	return ratio(float64(m.blocksLive)*blockWords*8, 16*float64(m.n))
}

// The open-loop generator has fallen behind — and the run is invalid,
// its latencies no longer those of the scheduled load — when idle
// workers wake for their due times later than maxGenLate at p99, or
// when the last request left more than maxBacklog after its due time
// (the bounded workers could not offer the scheduled rate).
const (
	maxGenLate = 50 * time.Millisecond
	maxBacklog = time.Second
)

func checkGenerator(ol openResult, rep *report) error {
	late := quantile(ol.genLate, 0.99)
	rep.note("open loop: %d requests scheduled, %d sent from idle workers, generator late p50 %.0fus p99 %.0fus, final backlog %v",
		ol.sent, len(ol.genLate), quantile(ol.genLate, 0.5), late, ol.backlog)
	if late > float64(maxGenLate/time.Microsecond) {
		return fmt.Errorf("%w: open-loop workers woke %.0fus late at p99 (limit %v)", errInvalidRun, late, maxGenLate)
	}
	if ol.backlog > maxBacklog {
		return fmt.Errorf("%w: open loop ended %v behind its schedule (limit %v)", errInvalidRun, ol.backlog, maxBacklog)
	}
	return nil
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
