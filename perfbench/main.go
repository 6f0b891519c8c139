// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's public entry points in-process on one workload, checks
// every output against a reference, and prints its metrics by name with
// their units; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload replay-hot --seed 7 --seconds 12 --trace 0
//
// README.md describes the workloads, the metrics and the layers they
// attribute.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cryptoarch/internal/experiments"
	"cryptoarch/internal/harness"
)

// config is what one run measures and how.
type config struct {
	seed    int64
	dur     time.Duration // length of the measured phase
	traced  bool
	doc     string   // reference document the sweeps' reports must appear in
	tmp     string   // the run's private temp directory
	ciphers []string // restrict the suite to these ciphers (tests); nil = all
	workers int      // goroutines doing work
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// count adds checked operations.
func (o *outcome) count(attempted, failed int) {
	o.attempted += attempted
	o.failed += failed
}

type workload struct {
	name string
	run  func(c *config, o *outcome) error
}

var workloads = []workload{
	{"sweep-cold", sweepCold},
	{"sweep-warm", sweepWarm},
	{"replay-hot", replayHot},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-cold, sweep-warm or replay-hot")
	seed := fs.Int64("seed", experiments.DefaultSeed, "workload seed (replay-hot; the sweeps run at the paper's seed, which their reference was produced with)")
	secs := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: untraced run printing end-to-end metrics; 1: traced run printing per-layer metrics")
	expected := fs.String("expected", "EXPERIMENTS.md", "reference document every regenerated report must appear in")
	tmp := fs.String("tmp", "", "directory for the run's temporary store (default: the system temp directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && *secs < 1 {
		err = fmt.Errorf("-seconds %d: must be at least 1", *secs)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace %d: must be 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	doc, err := os.ReadFile(*expected)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: reference document:", err)
		return 1
	}
	c := &config{
		seed:    *seed,
		dur:     time.Duration(*secs) * time.Second,
		traced:  *trace == 1,
		doc:     string(doc),
		tmp:     *tmp,
		workers: min(2, runtime.NumCPU()),
	}
	if w.name != "replay-hot" {
		c.seed = experiments.DefaultSeed
	}
	dir, err := os.MkdirTemp(*tmp, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// An interrupted run removes its temp directory too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs)
	}()
	go func() {
		if _, ok := <-sigs; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	c.tmp = dir
	o, err := measure(w, c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := report(o, c.traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure runs one workload, keeping its stores under c.tmp. A panic on
// the measuring goroutine becomes an error, so the caller's clean-up runs.
func measure(w workload, c *config) (o *outcome, err error) {
	if len(c.ciphers) > 0 {
		defer func(prev []string) { experiments.Ciphers = prev }(experiments.Ciphers)
		experiments.Ciphers = c.ciphers
	}
	defer experiments.SetParallelism(experiments.SetParallelism(c.workers))
	defer harness.SetStore(harness.SetStore(nil))
	defer func() {
		if v := recover(); v != nil {
			o, err = nil, fmt.Errorf("%s: panic: %v", w.name, v)
		}
	}()
	o = newOutcome()
	cpu0 := readCPU()
	if err := w.run(c, o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if c.traced {
		o.metrics["host.steal_frac"] = stealFrac(cpu0, readCPU())
	}
	return o, nil
}

// report selects the run's metrics from the catalogue: every end-to-end
// metric on an untraced run, every per-layer metric on a traced one.
func report(o *outcome, traced bool) (*result, error) {
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if o.attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	for _, m := range catalogue {
		if m.endToEnd == traced {
			continue
		}
		v, ok := o.metrics[m.name]
		if m.endToEnd && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}
