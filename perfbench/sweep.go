package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
	"cryptoarch/internal/store"
)

// storeBudget is the byte budget of every store the benchmark opens:
// large enough that a full cold suite (about 413 MB) evicts nothing.
const storeBudget = 2 << 30

const (
	// coldSetups is how many empty stores sweep-cold opens before its
	// first pass; setup_s is the median over these and the one opened
	// before each pass. One set-up takes about a millisecond, so the
	// median is taken over many.
	coldSetups = 101
	// coldMinPasses cold regenerations are always measured; regen_s is
	// their median, so one pass caught in a slow spell of the host does
	// not set it.
	coldMinPasses = 3
	// coldTracedPairs is how many untraced/traced pairs of passes a traced
	// sweep-cold run makes.
	coldTracedPairs = 2
	// warmSetups is how many times sweep-warm fills a store with the cold
	// suite; setup_s is their median, and the last store is kept.
	warmSetups = 2
	// warmMinPasses puts at least ten passes beyond regen_s_p90.
	warmMinPasses = 100
)

// regenPass is one regeneration of every report: the sweep of the whole
// grid, then the assembly of each report from the cell cache.
type regenPass struct {
	wall, sweep, assemble time.Duration
	cells                 []time.Duration // wall time per unique cell (traced passes)
	handshake             time.Duration   // the RSA handshake cell (traced passes)
	attempted, failed     int
}

// regenerate runs one regeneration and then checks it: every unique cell
// must finish Done and every report must match the reference. The check
// is not timed. With observe, the wall time of every cell is kept.
func regenerate(c *config, cells []experiments.Cell, observe bool) regenPass {
	var p regenPass
	var progress experiments.SweepProgress
	if observe {
		// The sweep serializes progress callbacks, so p needs no lock.
		progress = func(_, _ int, cell experiments.Cell, d time.Duration) {
			p.cells = append(p.cells, d)
			if cell.Kind == experiments.CellHandshake {
				p.handshake = d
			}
		}
	}
	type generated struct {
		name, md string
		err      error
	}
	reports := make([]generated, 0, len(experiments.All()))

	start := time.Now()
	out := experiments.SweepObservedCtx(context.Background(), cells, progress)
	mid := time.Now()
	for _, g := range experiments.All() {
		r, err := g.Run()
		md := ""
		if err == nil {
			md = r.Markdown()
		}
		reports = append(reports, generated{g.Name, md, err})
	}
	end := time.Now()
	p.wall, p.sweep, p.assemble = end.Sub(start), mid.Sub(start), end.Sub(mid)

	p.attempted = len(out.Cells) + len(reports)
	for _, co := range out.Cells {
		if co.State != experiments.CellDone {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s: %s: %v\n", co.Cell, co.State, co.Err)
		}
	}
	for _, r := range reports {
		err := r.err
		if err == nil {
			err = checkReport(r.name, r.md, c.doc, c.ciphers)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.name, err)
		}
	}
	return p
}

// suiteStore holds the store directory a sweep workload is using.
type suiteStore struct {
	c   *config
	dir string
}

// open installs a new, empty store in a fresh directory, dropping the
// previous one.
func (s *suiteStore) open(fsys store.FS) error {
	if err := s.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.c.tmp, "store-")
	if err != nil {
		return err
	}
	s.dir = dir
	return s.reopen(fsys)
}

// reopen installs a new handle on the current directory.
func (s *suiteStore) reopen(fsys store.FS) error {
	st, err := store.OpenFS(s.dir, storeBudget, fsys)
	if err != nil {
		return err
	}
	harness.SetStore(st)
	return nil
}

// close uninstalls the store and deletes its directory.
func (s *suiteStore) close() error {
	harness.SetStore(nil)
	if s.dir == "" {
		return nil
	}
	dir := s.dir
	s.dir = ""
	return os.RemoveAll(dir)
}

// release drops the in-memory caches and the store of a finished pass
// and returns the freed heap to the kernel.
func release(s *suiteStore) error {
	experiments.ResetCache()
	err := s.close()
	debug.FreeOSMemory()
	return err
}

// layerSnapshot is the state of every counter a traced regeneration reads.
type layerSnapshot struct {
	io           storeIO
	heap         heapSample
	insts, cycle int64
	tc           harness.TraceCacheStats
	st           store.Stats
}

func snapshotLayers(fsys *countingFS) layerSnapshot {
	reg := harness.Metrics()
	return layerSnapshot{
		io:    fsys.snapshot(),
		heap:  readHeap(),
		insts: reg.Counter("ooo.insts").Value(),
		cycle: reg.Counter("ooo.cycles").Value(),
		tc:    harness.ReadTraceCacheStats(),
		st:    store.ReadStats(),
	}
}

// tracedRegen runs one regeneration, observing it, and returns it with
// its per-layer values. Counters are read as differences around the pass,
// so the values are per pass whatever the counters held before.
func tracedRegen(c *config, cells []experiments.Cell, fsys *countingFS) (regenPass, map[string]float64) {
	b := snapshotLayers(fsys)
	p := regenerate(c, cells, true)
	a := snapshotLayers(fsys)
	io := a.io.sub(b.io)
	var busy, critical time.Duration
	for _, d := range p.cells {
		busy += d
		critical = max(critical, d)
	}
	return p, map[string]float64{
		"experiments.sweep_s":         p.sweep.Seconds(),
		"experiments.assemble_s":      p.assemble.Seconds(),
		"experiments.cells":           float64(len(p.cells)),
		"experiments.cell_ms_p50":     1e3 * median(seconds(p.cells)),
		"experiments.critical_cell_s": critical.Seconds(),
		"experiments.idle_s":          float64(c.workers)*p.sweep.Seconds() - busy.Seconds(),
		"pubkey.handshake_s":          p.handshake.Seconds(),

		"harness.record_s":  (a.tc.RecordTime - b.tc.RecordTime).Seconds(),
		"harness.hits":      float64(a.tc.Hits - b.tc.Hits),
		"harness.misses":    float64(a.tc.Misses - b.tc.Misses),
		"harness.evictions": float64(a.tc.Evictions - b.tc.Evictions),
		"harness.resumes":   float64(a.tc.Resumes - b.tc.Resumes),

		"store.read_s":      time.Duration(io.readNS).Seconds(),
		"store.read_bytes":  float64(io.readBytes),
		"store.reads":       float64(io.reads),
		"store.write_s":     time.Duration(io.writeNS).Seconds(),
		"store.write_bytes": float64(io.writeBytes),
		"store.writes":      float64(io.writes),
		"store.result_hits": float64(a.st.ResultHits - b.st.ResultHits),
		"store.trace_hits":  float64(a.st.TraceHits - b.st.TraceHits),

		"ooo.sim_insts":     float64(a.insts - b.insts),
		"ooo.sim_cycles":    float64(a.cycle - b.cycle),
		"runtime.alloc_mb":  float64(a.heap.allocBytes-b.heap.allocBytes) / (1 << 20),
		"runtime.gc_cycles": float64(a.heap.gcCycles - b.heap.gcCycles),
	}
}

// mergeMedians stores in o the median, over traced passes, of each
// per-layer value.
func mergeMedians(o *outcome, passes []map[string]float64) {
	if len(passes) == 0 {
		return
	}
	for name := range passes[0] {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = p[name]
		}
		o.metrics[name] = median(vs)
	}
}

// pairedOverhead runs n pairs of one untraced and one traced pass. The
// order alternates from pair to pair, so that neither side always runs
// first, on caches the other left or in a host state that drifts. It
// returns the median over the pairs of traced/untraced wall time, minus 1.
func pairedOverhead(n int, untraced, traced func() (time.Duration, error)) (float64, error) {
	ratios := make([]float64, n)
	for i := range ratios {
		var u, t time.Duration
		var err error
		if i%2 == 0 {
			if u, err = untraced(); err == nil {
				t, err = traced()
			}
		} else {
			if t, err = traced(); err == nil {
				u, err = untraced()
			}
		}
		if err != nil {
			return 0, err
		}
		ratios[i] = t.Seconds() / u.Seconds()
	}
	return median(ratios) - 1, nil
}

// sweepCold regenerates every report from empty in-memory caches and an
// empty store, as a fresh checkout or a version bump does. The untraced
// run measures at least coldMinPasses regenerations (more while the
// measured time lasts); the traced run measures coldTracedPairs pairs of
// an untraced and a traced regeneration.
func sweepCold(c *config, o *outcome) error {
	cells := experiments.AllCells()
	s := &suiteStore{c: c}
	defer s.close()
	var setups []time.Duration
	// setup prepares one cold pass: empty caches and an empty store. The
	// previous pass's caches, store and heap are released first, untimed.
	setup := func(fsys store.FS) error {
		if err := release(s); err != nil {
			return err
		}
		start := time.Now()
		experiments.ResetCache()
		if err := s.open(fsys); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
		return nil
	}
	for i := 0; i < coldSetups; i++ {
		if err := setup(store.OsFS()); err != nil {
			return err
		}
	}
	if err := startMeasuring(); err != nil {
		return err
	}
	if c.traced {
		return tracedCold(c, o, cells, setup)
	}

	var walls []time.Duration
	var peaks []float64
	start := time.Now()
	for len(walls) < coldMinPasses || time.Since(start) < c.dur {
		if len(walls) > 0 {
			if err := setup(store.OsFS()); err != nil {
				return err
			}
			passPeak()
		}
		p := regenerate(c, cells, false)
		peaks = append(peaks, passPeak())
		o.count(p.attempted, p.failed)
		walls = append(walls, p.wall)
	}
	o.metrics["setup_s"] = median(seconds(setups))
	o.metrics["regen_s"] = median(seconds(walls))
	o.metrics["rss_peak_mb"] = median(peaks)
	return nil
}

// tracedCold measures sweep-cold's per-layer values: the medians over the
// traced passes of coldTracedPairs pairs, and the traced/untraced pair
// ratio. Each pass starts from a fresh set-up.
func tracedCold(c *config, o *outcome, cells []experiments.Cell, setup func(store.FS) error) error {
	fsys := newCountingFS()
	var layers []map[string]float64
	overhead, err := pairedOverhead(coldTracedPairs, func() (time.Duration, error) {
		if err := setup(store.OsFS()); err != nil {
			return 0, err
		}
		p := regenerate(c, cells, false)
		o.count(p.attempted, p.failed)
		return p.wall, nil
	}, func() (time.Duration, error) {
		if err := setup(fsys); err != nil {
			return 0, err
		}
		p, m := tracedRegen(c, cells, fsys)
		o.count(p.attempted, p.failed)
		layers = append(layers, m)
		return p.wall, nil
	})
	if err != nil {
		return err
	}
	mergeMedians(o, layers)
	o.metrics["trace.overhead_frac"] = overhead
	return nil
}

// sweepWarm regenerates every report from a store the cold suite filled,
// with the in-memory caches dropped before each pass, so every cell is a
// result-tier hit — an incremental regeneration after a change that
// invalidated nothing. Set-up fills the store; its memory is returned
// and the RSS high-water mark reset before the measured phase.
func sweepWarm(c *config, o *outcome) error {
	cells := experiments.AllCells()
	s := &suiteStore{c: c}
	defer s.close()
	var setups []time.Duration
	for i := 0; i < warmSetups; i++ {
		if err := release(s); err != nil {
			return err
		}
		start := time.Now()
		experiments.ResetCache()
		if err := s.open(store.OsFS()); err != nil {
			return err
		}
		fill := regenerate(c, cells, false)
		o.count(fill.attempted, fill.failed)
		setups = append(setups, time.Since(start))
	}
	experiments.ResetCache()
	if err := startMeasuring(); err != nil {
		return err
	}

	dur := c.dur
	if c.traced {
		dur /= 2
	}
	var walls []time.Duration
	var peaks []float64
	start := time.Now()
	for len(walls) < warmMinPasses || time.Since(start) < dur {
		experiments.ResetCache()
		p := regenerate(c, cells, false)
		peaks = append(peaks, passPeak())
		o.count(p.attempted, p.failed)
		walls = append(walls, p.wall)
	}
	o.metrics["setup_s"] = median(seconds(setups))
	o.metrics["regen_s"] = median(seconds(walls))
	o.metrics["rss_peak_mb"] = median(peaks)
	if !c.traced {
		return nil
	}
	o.metrics["regen_s_p90"] = tailQuantile(seconds(walls), 0.9)

	// Traced passes read the same store through a second, counting
	// handle; untraced ones through the plain handle.
	plain := harness.CurrentStore()
	fsys := newCountingFS()
	counted, err := store.OpenFS(s.dir, storeBudget, fsys)
	if err != nil {
		return err
	}
	var layers []map[string]float64
	overhead, err := pairedOverhead(warmMinPasses, func() (time.Duration, error) {
		harness.SetStore(plain)
		experiments.ResetCache()
		p := regenerate(c, cells, false)
		o.count(p.attempted, p.failed)
		return p.wall, nil
	}, func() (time.Duration, error) {
		harness.SetStore(counted)
		experiments.ResetCache()
		p, m := tracedRegen(c, cells, fsys)
		o.count(p.attempted, p.failed)
		layers = append(layers, m)
		return p.wall, nil
	})
	if err != nil {
		return err
	}
	mergeMedians(o, layers)
	o.metrics["trace.overhead_frac"] = overhead
	return nil
}
