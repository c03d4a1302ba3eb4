package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	topk "repro"
)

// meter is the I/O accounting of the metered pass.
type meter struct {
	queries, updates int
	qIOs, uIOs       int64 // block reads + writes charged to each kind
	qReads           int64
	uReads, uWrites  int64
	blocksLive       int64
	n                int // live points after the pass
}

func isUpdate(k opKind) bool { return k != opTopK }

// meteredPass runs ops single-client on a cold pool: the first warm
// ops unmetered, the rest metered, every TopK answer checked against
// the oracle. Block transfers are charged to queries or updates by
// reading the meters whenever the op kind changes; the write-backs
// still pending at the end are flushed and charged to updates (as e2
// does), so the figures repeat exactly for a given op sequence.
func meteredPass(t target, ops []op, warm int, or *oracle) (meter, tally) {
	var m meter
	var tl tally
	t.dropCache()
	var last topk.Stats
	charge := func(update bool) {
		s := t.stats()
		dr, dw := s.Reads-last.Reads, s.Writes-last.Writes
		if update {
			m.uReads += dr
			m.uWrites += dw
			m.uIOs += dr + dw
		} else {
			m.qReads += dr
			m.qIOs += dr + dw
		}
		last = s
	}
	prevUpdate := false
	for i, o := range ops {
		metered := i >= warm
		if i == warm {
			last = t.stats()
		} else if metered && isUpdate(o.kind) != prevUpdate {
			charge(prevUpdate)
		}
		prevUpdate = isUpdate(o.kind)
		tl.attempted++
		res, err := t.do(o)
		if err != nil {
			tl.fail(err)
			continue
		}
		switch o.kind {
		case opTopK:
			if err := or.checkExact(o, res); err != nil {
				tl.wrongAnswer(err)
			}
		case opInsert:
			or.insert(o.p)
		case opDelete:
			or.delete(o.p)
		}
		if !metered {
			continue
		}
		if o.kind == opTopK {
			m.queries++
		} else {
			m.updates++
		}
	}
	if len(ops) > warm {
		charge(prevUpdate)
		t.dropCache() // write back what is still dirty in the pool
		charge(m.updates > 0)
	}
	s := t.stats()
	m.blocksLive = s.BlocksLive
	m.n = t.size()
	return m, tl
}

// sample is one timed op: when it completed (closed loop) or was due
// (open loop), relative to the phase start, and its latency.
type sample struct {
	at, lat time.Duration
	write   bool
}

// loopResult is what a timed phase measured.
type loopResult struct {
	samples []sample
	d       time.Duration // the measured span
	tally   tally
}

func (r loopResult) opsPerSec() float64 { return ratio(float64(len(r.samples)), r.d.Seconds()) }

// windowStat is one window's share of a timed phase.
type windowStat struct {
	opsPerSec          float64
	reads, writes      int
	readP50, readP99   float64
	writeP50, writeP99 float64
}

// windows cuts a phase into k equal windows by sample time. Reporting
// the median over windows keeps a burst of host interference inside
// one window from moving the run's figures.
func (r loopResult) windows(k int) []windowStat {
	w := r.d / time.Duration(k)
	reads := make([][]time.Duration, k)
	writes := make([][]time.Duration, k)
	for _, s := range r.samples {
		i := int(s.at / w)
		if i >= k {
			continue
		}
		if s.write {
			writes[i] = append(writes[i], s.lat)
		} else {
			reads[i] = append(reads[i], s.lat)
		}
	}
	out := make([]windowStat, k)
	for i := range out {
		out[i] = windowStat{
			opsPerSec: float64(len(reads[i])+len(writes[i])) / w.Seconds(),
			reads:     len(reads[i]),
			writes:    len(writes[i]),
			readP50:   quantile(reads[i], 0.50),
			readP99:   quantile(reads[i], 0.99),
			writeP50:  quantile(writes[i], 0.50),
			writeP99:  quantile(writes[i], 0.99),
		}
	}
	return out
}

// medianOver returns the median of f over the windows.
func medianOver(ws []windowStat, f func(windowStat) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// warmOps is each closed-loop client's unmeasured warm-up.
const warmOps = 200

// doer runs one op.
type doer interface {
	do(o op) ([]topk.Result, error)
}

// closedLoop runs one client per stream, each sending its next op as
// soon as the previous one returns, for d after a shared warm-up.
// Answers get the shape check; ops completing after d are not counted.
func closedLoop(t doer, streams []func() op, d time.Duration) loopResult {
	type clientOut struct {
		samples []sample
		tl      tally
	}
	outs := make([]clientOut, len(streams))
	var warmed sync.WaitGroup
	warmed.Add(len(streams))
	startC := make(chan time.Time)
	var wg sync.WaitGroup
	for c, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			run := func(q op) time.Duration {
				out.tl.attempted++
				s := time.Now()
				res, err := t.do(q)
				lat := time.Since(s)
				if err != nil {
					out.tl.fail(err)
				} else if q.kind == opTopK {
					if err := checkShape(q, res); err != nil {
						out.tl.wrongAnswer(err)
					}
				}
				return lat
			}
			for i := 0; i < warmOps; i++ {
				run(next())
			}
			warmed.Done()
			start := <-startC
			for {
				q := next()
				lat := run(q)
				at := time.Since(start)
				if at > d {
					return
				}
				out.samples = append(out.samples, sample{at: at, lat: lat, write: q.kind != opTopK})
			}
		}()
	}
	warmed.Wait()
	start := time.Now()
	for range streams {
		startC <- start
	}
	wg.Wait()
	res := loopResult{d: d}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.tally.merge(o.tl)
	}
	return res
}

// openResult is an open-loop phase's outcome.
type openResult struct {
	loopResult                 // samples at their due times, latency from due
	genLate    []time.Duration // how late an idle worker woke for its due time
	sent       int
	backlog    time.Duration // how late the last request was sent
}

// openLoop sends queries on a fixed schedule — request i is due at
// start + i/rate — through a bounded set of workers. A worker that is
// idle sleeps until the due time; one that is still busy sends late,
// and the wait counts in that request's latency, so a stall charges
// every request scheduled behind it. genLate records only the wake-up
// lateness of idle workers: the generator's own lag, not the system's.
func openLoop(t *fleetTarget, qs []op, rate float64, workers int, d time.Duration) openResult {
	total := min(int(rate*d.Seconds()), len(qs))
	urls := make([]string, total)
	for i := range urls {
		urls[i] = t.topkURL(qs[i])
	}
	type workerOut struct {
		samples []sample
		late    []time.Duration
		backlog time.Duration
		tl      tally
	}
	outs := make([]workerOut, workers)
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				at := time.Duration(float64(i) * interval)
				due := start.Add(at)
				if time.Until(due) > 0 {
					waitUntil(due)
					out.late = append(out.late, time.Since(due))
				}
				out.backlog = time.Since(due)
				out.tl.attempted++
				res, err := t.get(urls[i])
				out.samples = append(out.samples, sample{at: at, lat: time.Since(due)})
				if err != nil {
					out.tl.fail(err)
					continue
				}
				if err := checkShape(qs[i], res); err != nil {
					out.tl.wrongAnswer(err)
				}
			}
		}()
	}
	wg.Wait()
	res := openResult{loopResult: loopResult{d: d}, sent: total}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.genLate = append(res.genLate, o.late...)
		res.backlog = max(res.backlog, o.backlog)
		res.tally.merge(o.tl)
	}
	return res
}

// waitUntil returns at t. It sleeps in nanosleep rather than on a
// runtime timer: the runtime rounds an idle wait to whole
// milliseconds, which alone would make an idle worker send about half
// a millisecond late.
func waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// drawQueries takes count queries from an owner's stream.
func drawQueries(o *keyOwner, count int) []op {
	out := make([]op, count)
	for i := range out {
		out[i] = o.query()
	}
	return out
}
