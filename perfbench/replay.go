package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/ooo"
)

const (
	// hotSetups is how many times replay-hot sets up; setup_s is the median.
	hotSetups = 3
	// hotMinPasses is the fewest passes an untraced run measures, so that
	// every cell's median replay time is taken over at least this many
	// replays.
	hotMinPasses = 8
	// coverageMin and coverageMax bound harness.coverage, the share of
	// untraced TimeKernel time the traced parts account for. BENCHMARK.json
	// states the same band; a traced run outside it counts one failed
	// operation.
	coverageMin, coverageMax = 0.80, 1.05
)

// hotCell is one replay-hot cell with the statistics a live run of it
// produced during set-up.
type hotCell struct {
	cell experiments.Cell
	ref  ooo.Stats
}

// traceID names one recorded instruction stream: cells that differ only
// in the machine model replay the same trace.
type traceID struct {
	cipher string
	feat   isa.Feature
}

func (h hotCell) trace() traceID { return traceID{h.cell.Cipher, h.cell.Feat} }

// replayCells lists the unique kernel cells of Figures 5 and 10 at the
// workload seed, in figure order.
func replayCells(seed int64) []experiments.Cell {
	seen := map[string]bool{}
	var out []experiments.Cell
	for _, c := range append(experiments.Fig5Cells(), experiments.Fig10Cells()...) {
		c.Seed = seed
		if k := c.String(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// setupReplay empties the trace cache, records every trace the cells
// replay through it, and times each cell live — emulator and engine
// together, no trace — as the reference every replay must reproduce.
func setupReplay(c *config, cells []experiments.Cell) ([]hotCell, error) {
	harness.ResetTraceCache()
	hot := make([]hotCell, len(cells))
	recorded := map[traceID]bool{}
	for i, cell := range cells {
		hot[i].cell = cell
		id := hot[i].trace()
		if recorded[id] {
			continue
		}
		recorded[id] = true
		if _, err := harness.CountKernel(cell.Cipher, cell.Feat, cell.Session, cell.Seed); err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(hot))
	newReplayQueue(len(hot), 1, 0).run(c.workers, func(_, i int) {
		cell := hot[i].cell
		w, err := harness.NewWorkload(cell.Cipher, cell.Session, cell.Seed)
		if err != nil {
			errs[i] = err
			return
		}
		st, err := harness.TimeWorkload(w, cell.Feat, cell.Cfg)
		if err != nil {
			errs[i] = fmt.Errorf("reference %s: %w", cell, err)
			return
		}
		hot[i].ref = *st
	})
	return hot, errors.Join(errs...)
}

// replayQueue hands out cells pass after pass to the replay goroutines
// until the measured time is up, and then stops at the end of the
// current pass, so every pass is whole.
type replayQueue struct {
	mu     sync.Mutex
	n      int // cells per pass
	min    int // passes to run whatever the time
	next   int // claims so far
	start  time.Time
	dur    time.Duration
	passes int
	peaks  []float64 // RSS peak of each pass but the last, in MiB
}

func newReplayQueue(n, minPasses int, dur time.Duration) *replayQueue {
	return &replayQueue{n: n, min: max(1, minPasses), start: time.Now(), dur: dur}
}

// claim returns the index of the next cell to replay, or -1.
func (q *replayQueue) claim() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next%q.n == 0 {
		if q.passes >= q.min && time.Since(q.start) >= q.dur {
			return -1
		}
		if q.next > 0 {
			q.peaks = append(q.peaks, passPeak())
		}
		q.passes++
	}
	q.next++
	return (q.next - 1) % q.n
}

// run calls fn(w, i) for every cell i the queue hands out, on workers
// goroutines numbered w, and returns when the queue is drained.
func (q *replayQueue) run(workers int, fn func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := q.claim(); i >= 0; i = q.claim() {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// replayResult is one replay loop's measurements.
type replayResult struct {
	wall      time.Duration
	passes    int
	peaks     []float64         // RSS peak of each pass, in MiB
	cellTimes [][]time.Duration // untraced loops: TimeKernel wall times of each cell
	insts     uint64
	nsPerInst []float64 // untraced loops: per replay, wall time / instructions
	pairRatio []float64 // traced loops: traced / untraced TimeKernel time of each pair
	baseline  time.Duration
	replays   int // replays made and checked
	failed    int
	flip      bool // traced loops: which replay of the next pair runs first
}

// replay runs one harness.TimeKernel replay, checks it against the
// reference and returns its wall time; ok is false when it failed.
func (r *replayResult) replay(h hotCell) (d time.Duration, ok bool) {
	r.replays++
	start := time.Now()
	st, err := harness.TimeKernel(h.cell.Cipher, h.cell.Feat, h.cell.Cfg, h.cell.Session, h.cell.Seed)
	d = time.Since(start)
	if err != nil || *st != h.ref {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: replay %s differs from its live reference (err %v)\n", h.cell, err)
		return 0, false
	}
	return d, true
}

// tracedReplay is replay under a span; it returns the span's duration.
func (r *replayResult) tracedReplay(tr *tracer, h hotCell) (time.Duration, bool) {
	sp := tr.begin("harness.TimeKernel", h.cell.Cfg.Name)
	_, ok := r.replay(h)
	return tr.end(sp, int64(h.ref.Instructions)), ok
}

// pair replays h once untraced and once traced, in the order that
// alternates from one pair to the next so that neither always finds the
// caches the other warmed, and then repeats the traced replay one layer
// at a time. The untraced time is the baseline the layers' times are
// shares of.
func (r *replayResult) pair(tr *tracer, h hotCell, t *emu.Trace) {
	var base, traced time.Duration
	var okBase, okTraced bool
	if r.flip = !r.flip; r.flip {
		base, okBase = r.replay(h)
		traced, okTraced = r.tracedReplay(tr, h)
	} else {
		traced, okTraced = r.tracedReplay(tr, h)
		base, okBase = r.replay(h)
	}
	if !okBase || !okTraced {
		return
	}
	r.pairRatio = append(r.pairRatio, float64(traced)/float64(base))
	r.baseline += base
	if !layerReplay(tr, h, t) {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: engine run of %s differs from its live reference\n", h.cell)
	}
}

// replayLoop replays cells pass after pass, for at least minPasses passes
// and at least dur, on c.workers goroutines through harness.TimeKernel,
// and checks each replay against its reference. With a tracer, each
// claimed cell is replayed as a pair, untraced and traced, and then one
// layer at a time on the benchmark's own copy of the trace.
func replayLoop(c *config, hot []hotCell, minPasses int, dur time.Duration, tr *tracer, own map[traceID]*emu.Trace) replayResult {
	q := newReplayQueue(len(hot), minPasses, dur)
	results := make([]replayResult, c.workers)
	for w := range results {
		results[w].cellTimes = make([][]time.Duration, len(hot))
	}
	q.run(c.workers, func(w, i int) {
		r, h := &results[w], hot[i]
		if tr != nil {
			r.pair(tr, h, own[h.trace()])
			return
		}
		if d, ok := r.replay(h); ok {
			r.cellTimes[i] = append(r.cellTimes[i], d)
			r.insts += h.ref.Instructions
			r.nsPerInst = append(r.nsPerInst, float64(d.Nanoseconds())/float64(h.ref.Instructions))
		}
	})
	out := replayResult{
		wall:      time.Since(q.start),
		passes:    q.passes,
		peaks:     append(q.peaks, passPeak()),
		cellTimes: make([][]time.Duration, len(hot)),
	}
	for _, r := range results {
		for i, ds := range r.cellTimes {
			out.cellTimes[i] = append(out.cellTimes[i], ds...)
		}
		out.insts += r.insts
		out.nsPerInst = append(out.nsPerInst, r.nsPerInst...)
		out.pairRatio = append(out.pairRatio, r.pairRatio...)
		out.baseline += r.baseline
		out.replays += r.replays
		out.failed += r.failed
	}
	return out
}

// passTime is what one pass over every cell costs on the given number of
// goroutines: the sum over the cells of each one's median replay time,
// divided by the goroutines. A per-replay median does not follow the
// host's slow spells the way the wall time of a whole pass does.
func (r replayResult) passTime(workers int) float64 {
	var sum float64
	for _, ds := range r.cellTimes {
		sum += median(seconds(ds))
	}
	return sum / float64(workers)
}

// layerReplay repeats one replay a layer at a time, each under its own
// span: verifying the trace's checksum, decoding the trace alone, and
// building and running the engine on a fresh decode of it. It reports
// whether the engine's statistics equal the reference.
func layerReplay(tr *tracer, h hotCell, t *emu.Trace) bool {
	n := int64(len(t.Recs))
	// Only the time is wanted: TimeKernel has just verified its own copy.
	sp := tr.begin("emu.Trace.Checksum", "")
	t.Checksum()
	tr.end(sp, int64(t.Bytes()))

	sp = tr.begin("emu.ReplayStream.Next", h.cell.Cfg.Name)
	s := t.Stream()
	for _, ok := s.Next(); ok; _, ok = s.Next() {
	}
	tr.end(sp, n)

	k, err := kernels.Get(h.cell.Cipher)
	if err != nil {
		return false
	}
	sp = tr.begin("ooo.Engine.Run", h.cell.Cfg.Name)
	eng := ooo.NewEngine(h.cell.Cfg, t.Stream())
	eng.WarmData(kernels.CtxAddr, k.CtxBytes)
	eng.WarmCode(len(t.Prog.Code))
	st, err := eng.Run()
	tr.end(sp, n)
	return err == nil && *st == h.ref
}

// recordTraces records the benchmark's own copy of every trace the cells
// replay, through harness.Prepare and emu.Record, each under a span.
func recordTraces(tr *tracer, hot []hotCell) (map[traceID]*emu.Trace, error) {
	own := map[traceID]*emu.Trace{}
	for _, h := range hot {
		id := h.trace()
		if own[id] != nil {
			continue
		}
		sp := tr.begin("emu.Record", h.cell.Cipher+"/"+h.cell.Feat.String())
		w, err := harness.NewWorkload(h.cell.Cipher, h.cell.Session, h.cell.Seed)
		if err != nil {
			return nil, err
		}
		m, err := harness.Prepare(w, h.cell.Feat)
		if err != nil {
			return nil, err
		}
		t, complete := emu.Record(m, 0, nil)
		tr.end(sp, int64(len(t.Recs)))
		if !complete {
			return nil, fmt.Errorf("record %s/%s: %v", h.cell.Cipher, h.cell.Feat, m.Err())
		}
		own[id] = t
	}
	return own, nil
}

// replayHot re-times the kernel cells of Figures 5 and 10 against traces
// recorded during set-up, with the store off: the design-exploration
// loop of verify, decode and engine that bypasses emulation, the store
// and the sweep scheduler.
func replayHot(c *config, o *outcome) error {
	cells := replayCells(c.seed)
	var hot []hotCell
	var setups []time.Duration
	for i := 0; i < hotSetups; i++ {
		start := time.Now()
		h, err := setupReplay(c, cells)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
		hot = h
	}
	var perPass struct{ insts, cycles uint64 }
	for _, h := range hot {
		perPass.insts += h.ref.Instructions
		perPass.cycles += h.ref.Cycles
	}
	if err := startMeasuring(); err != nil {
		return err
	}

	dur, minPasses := c.dur, hotMinPasses
	if c.traced {
		dur, minPasses = dur/2, 1
	}
	tc0, heap0 := harness.ReadTraceCacheStats(), readHeap()
	u := replayLoop(c, hot, minPasses, dur, nil, nil)
	tc1, heap1 := harness.ReadTraceCacheStats(), readHeap()
	o.count(u.replays, u.failed)
	o.metrics["setup_s"] = median(seconds(setups))
	o.metrics["regen_s"] = u.passTime(c.workers)
	o.metrics["rss_peak_mb"] = median(u.peaks)
	if !c.traced {
		return nil
	}

	passes := float64(u.passes)
	replays := passes * float64(len(hot))
	o.metrics["sim_mips"] = float64(u.insts) / u.wall.Seconds() / 1e6
	o.metrics["ns_per_inst_p50"] = median(u.nsPerInst)
	o.metrics["ns_per_inst_p90"] = tailQuantile(u.nsPerInst, 0.9)
	o.metrics["ooo.sim_insts"] = float64(perPass.insts)
	o.metrics["ooo.sim_cycles"] = float64(perPass.cycles)
	o.metrics["runtime.alloc_bytes_per_replay"] = float64(heap1.allocBytes-heap0.allocBytes) / replays
	o.metrics["runtime.alloc_mb"] = float64(heap1.allocBytes-heap0.allocBytes) / (1 << 20) / passes
	o.metrics["runtime.gc_cycles"] = float64(heap1.gcCycles-heap0.gcCycles) / passes
	o.metrics["harness.record_s"] = (tc1.RecordTime - tc0.RecordTime).Seconds() / passes
	o.metrics["harness.hits"] = float64(tc1.Hits-tc0.Hits) / passes
	o.metrics["harness.misses"] = float64(tc1.Misses-tc0.Misses) / passes
	o.metrics["harness.evictions"] = float64(tc1.Evictions-tc0.Evictions) / passes
	o.metrics["harness.resumes"] = float64(tc1.Resumes-tc0.Resumes) / passes

	tr := &tracer{}
	own, err := recordTraces(tr, hot)
	if err != nil {
		return err
	}
	recNS, recInsts := tr.total("emu.Record", "")
	o.metrics["emu.record_ns_per_inst"] = ratio(float64(recNS), float64(recInsts))
	o.metrics["emu.insts_recorded"] = float64(recInsts)

	t := replayLoop(c, hot, 1, dur, tr, own)
	o.count(t.replays, t.failed)
	verify, bytes := tr.total("emu.Trace.Checksum", "")
	decode, insts := tr.total("emu.ReplayStream.Next", "")
	run, _ := tr.total("ooo.Engine.Run", "")
	engine := run - decode
	base := float64(t.baseline)
	coverage := ratio(float64(verify+decode+engine), base)
	o.metrics["trace.overhead_frac"] = median(t.pairRatio) - 1
	o.metrics["emu.verify_ns_per_byte"] = ratio(float64(verify), float64(bytes))
	o.metrics["emu.verify_share"] = ratio(float64(verify), base)
	o.metrics["emu.decode_ns_per_inst"] = ratio(float64(decode), float64(insts))
	o.metrics["emu.decode_share"] = ratio(float64(decode), base)
	o.metrics["ooo.engine_ns_per_inst"] = ratio(float64(engine), float64(insts))
	o.metrics["harness.coverage"] = coverage
	o.metrics["harness.overhead_share"] = 1 - coverage
	// The attribution is one checked operation: the parts must account
	// for the untraced TimeKernel time within the stated band.
	if coverage < coverageMin || coverage > coverageMax {
		o.count(1, 1)
		fmt.Fprintf(os.Stderr, "perfbench: traced parts cover %.3f of untraced TimeKernel time, outside [%.2f, %.2f]\n", coverage, coverageMin, coverageMax)
	} else {
		o.count(1, 0)
	}
	// Per model: each replay's engine and decode spans carry its machine
	// configuration, so the engine time of a model is its runs minus
	// their decodes.
	type engineTime struct{ ns, insts float64 }
	perModel := map[string]engineTime{}
	for cfg := range configsOf(hot) {
		r, n := tr.total("ooo.Engine.Run", cfg)
		dec, _ := tr.total("emu.ReplayStream.Next", cfg)
		m := perModel[engineModel(cfg)]
		perModel[engineModel(cfg)] = engineTime{m.ns + float64(r-dec), m.insts + float64(n)}
	}
	for model, e := range perModel {
		o.metrics["ooo.engine_ns_per_inst."+model] = ratio(e.ns, e.insts)
	}
	return nil
}

// configsOf lists the machine configurations the cells run.
func configsOf(hot []hotCell) map[string]bool {
	out := map[string]bool{}
	for _, h := range hot {
		out[h.cell.Cfg.Name] = true
	}
	return out
}
