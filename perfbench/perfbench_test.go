package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cryptoarch/internal/experiments"
)

// tinyConfig is a one-cipher run: every workload at the smallest scale
// that still exercises all of its layers.
func tinyConfig(t *testing.T, traced bool) *config {
	t.Helper()
	doc, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		seed:    experiments.DefaultSeed,
		dur:     200 * time.Millisecond,
		traced:  traced,
		doc:     string(doc),
		tmp:     t.TempDir(),
		ciphers: []string{"rc4"},
		workers: min(2, runtime.NumCPU()),
	}
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o, err := measure(w, tinyConfig(t, traced))
				if err != nil {
					t.Fatal(err)
				}
				res, err := report(o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d, want a clean run", res.Correct, res.Attempted, res.Failed)
				}
				want := 0
				for _, m := range catalogue {
					if m.endToEnd == traced {
						continue
					}
					want++
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, present %v; want unit %s", m.name, got, ok, m.unit)
					}
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics, want %d", len(res.Metrics), want)
				}
				// The result line must round-trip as the JSON object the
				// benchmark prints.
				b, err := json.Marshal(res)
				if err != nil || strings.Contains(string(b), "\n") {
					t.Fatalf("result line %q: %v", b, err)
				}
			})
		}
	}
}

// TestCorruptedReferenceFails regenerates the tiny suite against a
// reference with one digit of one rc4 row changed: exactly that report
// must count as a failed operation.
func TestCorruptedReferenceFails(t *testing.T) {
	c := tinyConfig(t, false)
	i := strings.Index(c.doc, "### figure-4:")
	j := strings.Index(c.doc[i:], "\n| rc4 | ")
	if i < 0 || j < 0 {
		t.Fatal("reference has no figure-4 rc4 row")
	}
	row := i + j + len("\n| rc4 | ")
	digit := c.doc[row]
	flipped := byte('1')
	if digit == '1' {
		flipped = '2'
	}
	c.doc = c.doc[:row] + string(flipped) + c.doc[row+1:]

	regen := workload{"regen-once", func(c *config, o *outcome) error {
		s := &suiteStore{c: c}
		defer s.close()
		if err := s.open(newCountingFS()); err != nil {
			return err
		}
		p := regenerate(c, experiments.AllCells(), false)
		o.count(p.attempted, p.failed)
		return nil
	}}
	o, err := measure(regen, c)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 {
		t.Fatalf("%d failed operations of %d against a corrupted figure-4, want 1", o.failed, o.attempted)
	}
}

func TestCheckReport(t *testing.T) {
	md := "### figure-9: Title\n\n| Cipher | X |\n|---|---|\n| rc4 | 1.00 |\n| rc6 | 2.00 |\n| average | 1.50 |\n"
	doc := "intro\n\n" + md + "\n> note\n"
	if err := checkReport("figure-9", md, doc, nil); err != nil {
		t.Errorf("verbatim report: %v", err)
	}
	if err := checkReport("figure-9", strings.Replace(md, "2.00", "2.01", 1), doc, nil); err == nil {
		t.Error("changed row passed the full-suite check")
	}
	// Restricted to rc4, the suite average differs, and only rc4 rows and
	// the heading are compared.
	sub := "### figure-9: Title\n\n| Cipher | X |\n|---|---|\n| rc4 | 1.00 |\n| average | 1.00 |\n"
	if err := checkReport("figure-9", sub, doc, []string{"rc4"}); err != nil {
		t.Errorf("one-cipher report: %v", err)
	}
	if err := checkReport("figure-9", strings.Replace(sub, "| rc4 | 1.00", "| rc4 | 1.01", 1), doc, []string{"rc4"}); err == nil {
		t.Error("changed rc4 row passed the one-cipher check")
	}
}

// TestReplayDetectsWrongReference shows a replay that disagrees with its
// live reference counts as a failed operation.
func TestReplayDetectsWrongReference(t *testing.T) {
	c := tinyConfig(t, false)
	defer func(prev []string) { experiments.Ciphers = prev }(experiments.Ciphers)
	experiments.Ciphers = c.ciphers
	hot, err := setupReplay(c, replayCells(c.seed))
	if err != nil {
		t.Fatal(err)
	}
	hot[0].ref.Stalls[0]++
	r := replayLoop(c, hot, 1, 0, nil, nil)
	if r.failed != r.passes {
		t.Fatalf("%d failed replays over %d passes, want one per pass", r.failed, r.passes)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and perfbench
// in step: the same workloads, and the same metrics with the same units.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, want)
	}
	// The coverage band replay-hot enforces is the one BENCHMARK.json
	// states.
	band := fmt.Sprintf("%.2f-%.2f", coverageMin, coverageMax)
	for _, w := range spec.Workloads {
		if w.Name == "replay-hot" && !strings.Contains(w.Why, band) {
			t.Errorf("BENCHMARK.json replay-hot why %q does not state the coverage band %s", w.Why, band)
		}
	}
	listed := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	for _, m := range spec.EndToEnd {
		if !isEndToEnd(m.Name) {
			t.Errorf("BENCHMARK.json lists %s as end-to-end; perfbench does not", m.Name)
		}
	}
	for _, m := range catalogue {
		if unit, ok := listed[m.name]; !ok || unit != m.unit {
			t.Errorf("metric %s (%s): BENCHMARK.json has %q, listed %v", m.name, m.unit, unit, ok)
		}
	}
	if len(listed) != len(catalogue) {
		t.Errorf("BENCHMARK.json lists %d metrics, perfbench %d", len(listed), len(catalogue))
	}
}

func isEndToEnd(name string) bool {
	for _, m := range catalogue {
		if m.name == name {
			return m.endToEnd
		}
	}
	return false
}
