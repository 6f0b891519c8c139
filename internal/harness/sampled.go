package harness

import (
	"math"
	"sync"
	"sync/atomic"

	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
	"cryptoarch/internal/metrics"
	"cryptoarch/internal/ooo"
)

// Interval sampling. Where chunked replay simulates every instruction of
// a session, sampling simulates only K representative measurement windows
// (each preceded by a warmup prefix) and extrapolates the whole-session
// statistics from them — the methodology that makes billion-instruction
// sessions sweepable at a bounded per-cell budget. The windows are spaced
// evenly through the trace, so periodic phase behaviour (block boundaries,
// key-schedule reuse) is sampled across its period. The estimate comes
// with a measured dispersion bound: the relative spread of per-interval
// CPI, which the error-bound test validates against exact runs across all
// eight ciphers.

// Default sampling parameters (used when the SampleOptions field is 0).
const (
	DefaultSampleIntervals     = 8
	DefaultSampleIntervalInsts = 32768
)

// SampleOptions configures TimeKernelSampled.
type SampleOptions struct {
	// Intervals is K, the number of measurement windows (0 =
	// DefaultSampleIntervals).
	Intervals int
	// IntervalInsts is L, the measured length of each window in
	// instructions (0 = DefaultSampleIntervalInsts).
	IntervalInsts int
	// WarmupInsts is the per-window warmup prefix (0 = DefaultChunkWarmup,
	// negative = none).
	WarmupInsts int
	// Workers caps worker goroutines, with the same semantics as
	// ChunkOptions.Workers.
	Workers int
}

// SampleReport describes a sampled run and its measured error bound.
type SampleReport struct {
	Intervals     int     `json:"intervals"`
	IntervalInsts int     `json:"interval_insts"`
	WarmupInsts   int     `json:"warmup_insts"`
	Workers       int     `json:"workers"`
	TotalInsts    uint64  `json:"total_insts"`
	SampledInsts  uint64  `json:"sampled_insts"`
	Coverage      float64 `json:"coverage"` // SampledInsts / TotalInsts
	// RelErrBound is the measured dispersion bound on the extrapolated
	// cycle count: t*sd/(sqrt(K)*mean) over the per-interval CPIs, where t
	// is the two-sided 95% Student-t quantile for K-1 degrees of freedom
	// (3.182 at K=4, 2.365 at K=8) — the half-width of a 95% confidence
	// interval on the mean CPI, relative. It covers interval-to-interval
	// dispersion only, not warmup bias. Zero when K < 2 or when the run
	// was exact.
	RelErrBound float64 `json:"rel_err_bound"`
	// Exact is set when sampling would have covered the whole session (or
	// the trace could not be addressed), so the serial exact path ran
	// instead and the returned Stats carry no extrapolation error.
	Exact bool `json:"exact"`
}

// TimeKernelSampled times one cipher-kernel session by simulating K
// warmup-preceded intervals of its recorded trace and extrapolating the
// whole-session Stats. Instructions is exact (the trace length); Cycles
// and the other counters are scaled estimates whose measured dispersion
// bound rides in the report. Falls back to the exact serial path when the
// sample would cover the session anyway, or when the trace cannot be
// retained whole.
func TimeKernelSampled(cipher string, feat isa.Feature, cfg ooo.Config, sessionBytes int, seed int64, opt SampleOptions) (*ooo.Stats, *SampleReport, error) {
	tr, codeLen, err := traces.traceFor(traceKey{cipher: cipher, feat: feat, session: sessionBytes, seed: seed, mode: modeEncrypt})
	if err != nil {
		return nil, nil, err
	}
	kern, err := kernels.Get(cipher)
	if err != nil {
		return nil, nil, err
	}

	k := opt.Intervals
	if k <= 0 {
		k = DefaultSampleIntervals
	}
	l := opt.IntervalInsts
	if l <= 0 {
		l = DefaultSampleIntervalInsts
	}
	w := opt.WarmupInsts
	switch {
	case w == 0:
		w = DefaultChunkWarmup
	case w < 0:
		w = 0
	}

	n := 0
	if tr != nil {
		n = len(tr.Recs)
	}
	// Exact fallback: no addressable trace, or the windows would tile the
	// whole session anyway (stride <= measured length), so sampling buys
	// nothing and the exact run is strictly better.
	if tr == nil || k >= n || n/k <= l {
		if reg := Metrics(); reg != nil {
			reg.Counter("sample.exact_fallbacks").Inc()
		}
		st, err := TimeKernel(cipher, feat, cfg, sessionBytes, seed)
		if err != nil {
			return nil, nil, err
		}
		return st, &SampleReport{
			Intervals: 1, TotalInsts: st.Instructions, SampledInsts: st.Instructions,
			Coverage: 1, Exact: true,
		}, nil
	}

	specs := make([]chunkSpec, k)
	for i := 0; i < k; i++ {
		s := i * n / k
		warm := w
		if warm > s {
			warm = s
		}
		specs[i] = chunkSpec{start: s, end: s + l, warm: warm}
	}

	workers := 1
	acquired := 0
	if opt.Workers > 0 {
		workers = opt.Workers
	} else {
		acquired = TryAcquireWorkers(k - 1)
		workers = acquired + 1
	}
	if workers > k {
		workers = k
	}
	defer ReleaseWorkers(acquired)

	if reg := Metrics(); reg != nil {
		reg.Counter("sample.runs").Inc()
		reg.Counter("sample.intervals").Add(int64(k))
	}
	tl := CurrentTimeline()
	parent := metrics.NoSpan
	if tl != nil {
		parent = tl.Begin("sampled", "sampled "+cfg.Name+" "+cipher+"/"+feat.String())
	}
	defer tl.End(parent)

	results := make([]chunkResult, k)
	var next int64 = -1
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= k {
				return
			}
			// Interval boundary: a cancelled run stops claiming windows,
			// mirroring the chunked-replay cancellation point.
			if err := Cancelled(); err != nil {
				results[i] = chunkResult{err: err}
				return
			}
			sp := metrics.NoSpan
			if tl != nil {
				sp = tl.BeginOn(parent, "interval", "interval "+cfg.Name)
			}
			results[i] = runWindow(tr, codeLen, kern.CtxBytes, cfg, specs[i], false)
			tl.End(sp)
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tl.ReleaseTrack()
			work()
		}()
	}
	work()
	wg.Wait()

	// Sum the measured windows and collect per-interval CPIs.
	sum := &ooo.Stats{Config: cfg.Name}
	cpis := make([]float64, 0, k)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		sum.Accumulate(r.st)
		if r.st.Instructions > 0 {
			cpis = append(cpis, float64(r.st.Cycles)/float64(r.st.Instructions))
		}
	}

	est, rep := extrapolate(sum, cpis, uint64(n), cfg)
	rep.Intervals, rep.IntervalInsts, rep.WarmupInsts, rep.Workers = k, l, w, workers
	if reg := Metrics(); reg != nil {
		// Parts-per-million so the power-of-two histogram buckets resolve
		// sub-percent bounds.
		reg.Histogram("sample.rel_err_bound_ppm").Observe(int64(rep.RelErrBound * 1e6))
	}
	return est, rep, nil
}

// extrapolate scales the summed window stats to the whole session and
// computes the measured dispersion bound.
func extrapolate(sum *ooo.Stats, cpis []float64, totalInsts uint64, cfg ooo.Config) (*ooo.Stats, *SampleReport) {
	sampled := sum.Instructions
	f := float64(totalInsts) / float64(sampled)
	scale := func(v uint64) uint64 { return uint64(math.Round(float64(v) * f)) }

	est := &ooo.Stats{Config: cfg.Name}
	est.Cycles = scale(sum.Cycles)
	est.Instructions = totalInsts // exact: the trace length is known
	for i := range est.ClassCounts {
		est.ClassCounts[i] = scale(sum.ClassCounts[i])
	}
	est.Branches = scale(sum.Branches)
	est.Mispredicts = scale(sum.Mispredicts)
	est.Loads = scale(sum.Loads)
	est.Stores = scale(sum.Stores)
	est.SboxAccesses = scale(sum.SboxAccesses)
	est.SboxHits = scale(sum.SboxHits)
	est.DL1Misses = scale(sum.DL1Misses)
	est.L2Misses = scale(sum.L2Misses)
	est.TLBMisses = scale(sum.TLBMisses)

	// Scale the stall buckets, then repair the rounding residue so the
	// slot identity Slots() == Cycles*IssueWidth survives extrapolation on
	// finite-width machines (the residue lands in the largest bucket,
	// where it is relatively smallest).
	if sum.Stalls.Slots() > 0 {
		largest, largestV := 0, uint64(0)
		var got uint64
		for i := range est.Stalls {
			est.Stalls[i] = scale(sum.Stalls[i])
			got += est.Stalls[i]
			if est.Stalls[i] > largestV {
				largest, largestV = i, est.Stalls[i]
			}
		}
		want := est.Cycles * uint64(cfg.IssueWidth)
		est.Stalls[largest] += want - got // two's-complement safe either sign
	}

	// Dispersion bound: the relative half-width of a 95% Student-t
	// confidence interval on the per-interval CPI mean.
	bound := 0.0
	if len(cpis) >= 2 {
		var mean float64
		for _, c := range cpis {
			mean += c
		}
		mean /= float64(len(cpis))
		var varsum float64
		for _, c := range cpis {
			d := c - mean
			varsum += d * d
		}
		sd := math.Sqrt(varsum / float64(len(cpis)-1))
		if mean > 0 {
			bound = tQuantile95(len(cpis)-1) * sd / (math.Sqrt(float64(len(cpis))) * mean)
		}
	}

	return est, &SampleReport{
		TotalInsts:   totalInsts,
		SampledInsts: sampled,
		Coverage:     float64(sampled) / float64(totalInsts),
		RelErrBound:  bound,
	}
}

// t95 holds the two-sided 95% Student-t quantiles t(0.975, df) for df =
// 1..30.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile95 returns the two-sided 95% Student-t quantile for df >= 1
// degrees of freedom. Beyond the table it returns the df=30 value, which
// exceeds the exact quantile by at most 4% (1.960 in the limit), so the
// bound errs on the wide side.
func tQuantile95(df int) float64 {
	return t95[min(df, len(t95))-1]
}
