// Command perfbench is the repository benchmark. One run generates its
// inputs from --seed and runs four stages in one process:
//
//   - batch: anySCAN at all cores and at one thread, the exact index build
//     and the approximate index build, each from scratch on a skewed LFR
//     graph;
//   - explore: closed-loop clients against an in-process anyscand with a
//     warm index, sending a seeded mix of /v1/local and /v1/query requests;
//   - live: one writer posting mutation batches and one reader asking for
//     its writes with min_epoch;
//   - stream: the incremental Maintainer applying the same style of batches.
//
// Every answer is checked against an in-process oracle outside the timed
// path; a wrong answer counts as a failed operation. The last line of
// standard output is one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for temporary graph files and the span file
	// scale multiplies every graph's vertex count (1 in real runs; the
	// tests shrink the graphs).
	scale float64
	// corrupt deliberately perturbs every oracle's expected answers, so
	// that the tests can check that wrong answers become counted failures.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: operation counts, the metrics measured so
// far and, in a traced run, the span recorder.
type bench struct {
	cfg   config
	nproc int
	tr    *tracer // nil in an untraced run

	attempted, failed atomic.Int64

	setupRuns []setupSample

	// Runtime totals over the traced load passes.
	gcCycles   int64
	heapPeakMB float64

	mu       sync.Mutex
	e2e      map[string]metric
	layer    map[string]metric
	counters map[string]float64
	problems []string       // the first few failures of each stage
	perStage map[string]int // failures recorded per stage
}

func newBench(cfg config) *bench {
	b := &bench{
		cfg:      cfg,
		nproc:    runtime.NumCPU(),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		counters: map[string]float64{},
		perStage: map[string]int{},
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// op counts one operation and, when ok is false, one failure with the
// reason, which starts with the stage's name. A failure never aborts the
// run.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		p := fmt.Sprintf(format, args...)
		stage, _, _ := strings.Cut(p, ":")
		b.mu.Lock()
		if b.perStage[stage]++; b.perStage[stage] <= 5 {
			b.problems = append(b.problems, p)
		}
		b.mu.Unlock()
	}
	return ok
}

func (b *bench) setE2E(name, unit string, v float64) {
	b.mu.Lock()
	b.e2e[name] = metric{v, unit}
	b.mu.Unlock()
}

func (b *bench) setLayer(name, unit string, v float64) {
	b.mu.Lock()
	b.layer[name] = metric{v, unit}
	b.mu.Unlock()
}

// counter records a count that does not depend on the hardware, reported
// with the run.
func (b *bench) counter(name string, v float64) {
	b.mu.Lock()
	b.counters[name] = v
	b.mu.Unlock()
}

func (b *bench) result() result {
	m := b.e2e
	if b.cfg.trace {
		m = b.layer
	}
	failed := b.failed.Load()
	return result{Correct: failed == 0, Attempted: b.attempted.Load(), Failed: failed, Metrics: m}
}

// stage is one part of a run. measure runs it for about d, with tracing
// when traced; finish checks the final state and sets the metrics.
type stage interface {
	measure(d time.Duration, traced bool) error
	finish() error
}

// rounds is how many times the stages take turns. Spreading each stage's
// measurement over the whole run averages out the host's slower phases,
// which last seconds, instead of letting one stage catch them all.
const rounds = 8

// run executes one benchmark run: set-up, then the four stages taking
// turns for rounds rounds, with the other set-ups in between. In a traced
// run each stage's turn is an untraced and a traced pass, in alternating
// order from round to round, so that the traced overhead is measured
// against passes that saw the same host phases and graph states.
func run(cfg config) (*bench, error) {
	b := newBench(cfg)
	start := time.Now()
	e, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer e.close()

	stages := []struct {
		name  string
		share float64 // of the measured time
		s     stage
	}{
		{"batch", 0.35, &batchStage{b: b, g: e.batchG}},
		{"explore", 0.30, &exploreStage{b: b, e: e, script: exploreScript(cfg.seed, int32(e.serveG.NumVertices()), scriptLen)}},
		{"live", 0.20, newLiveStage(b, e)},
		{"stream", 0.15, newStreamStage(b, e)},
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		if n := len(b.setupRuns); n < setups && r == rounds*n/setups {
			x, err := b.setup()
			if err != nil {
				return nil, err
			}
			x.close()
		}
		for _, st := range stages {
			for i := 0; i <= btoi(cfg.trace); i++ {
				traced := cfg.trace && (i+r)%2 == 1
				runtime.GC()
				d := time.Duration(st.share * float64(total) / rounds)
				if err := st.s.measure(d, traced); err != nil {
					return nil, fmt.Errorf("%s stage: %w", st.name, err)
				}
			}
		}
	}
	measured := time.Now()
	b.setupMetrics()
	for _, st := range stages {
		if err := st.s.finish(); err != nil {
			return nil, fmt.Errorf("%s stage: %w", st.name, err)
		}
	}
	var setupTime time.Duration
	for _, s := range b.setupRuns {
		setupTime += s.total
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.1fs, rounds %.1fs, final checks %.1fs\n",
		setupTime.Seconds(), (measured.Sub(start) - setupTime).Seconds(), time.Since(measured).Seconds())
	if b.tr != nil {
		b.setLayer("runtime.gc_cycles", "count", float64(b.gcCycles))
		b.setLayer("runtime.heap_peak_mb", "MiB", b.heapPeakMB)
		if err := b.tr.write(b, cfg); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func main() {
	var (
		cfg      config
		name     string
		traceArg int
	)
	flag.StringVar(&name, "workload", "", "workload to run: unit or weighted")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds, split across the four stages")
	flag.IntVar(&traceArg, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", os.TempDir(), "directory for temporary files and the span file")
	flag.Parse()
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if traceArg != 0 && traceArg != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg.workload, cfg.trace, cfg.scale = w, traceArg == 1, 1

	b, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", p)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": w.name,
		"seed":     cfg.seed,
		"host": map[string]any{
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		"counters": b.counters,
	})
	fmt.Println(string(info))
	out, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
