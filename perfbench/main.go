// Command perfbench is bgpvr's end-to-end and per-layer benchmark. One
// invocation sets up one workload, measures it for a fixed wall-clock
// window, checks every output it produced, and prints one JSON result
// as the last line of standard output:
//
//	perfbench --workload frame-gen --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 the window is split: an untraced half, then a
// traced half whose spans (recorded around every call the benchmark
// makes into a layer) give the per-layer metrics; the spans are written
// to the OS temp dir at the end. NOTES.md describes
// the workloads, the metrics and how each is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so a one-off stall does not move it.
const setupReps = 3

// workload is one benchmark input set. setup builds everything the
// timed window needs (scratch files, references, a warm server) and
// may be called several times; only the last result is measured.
type workload struct {
	name  string
	setup func(seed int64) (state, error)
}

// state is a set-up workload.
type state interface {
	// run measures the workload until the deadline. With rec nil it
	// is an untraced run; otherwise it records spans into rec and
	// fills the per-layer metrics into res.
	run(deadline time.Time, rec *recorder, res *result) error
	close()
}

var workloads = []workload{
	{"frame-gen", setupFrameGen},
	{"frame-cdf", setupFrameCDF},
	{"serve-mix", setupServeMix},
	{"exhibits", setupExhibits},
}

func main() {
	name := flag.String("workload", "", "workload to run: frame-gen, frame-cdf, serve-mix, exhibits")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measuring window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	prov := provenanceOf(name, seed)

	var st state
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := w.setup(seed)
		if err != nil {
			if st != nil {
				st.close()
			}
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if st != nil {
			st.close()
		}
		st = s
	}
	defer st.close()

	res := newResult()
	res.set("setup_s", median(setups))
	res.heap = startHeapSampler()
	defer res.heap.stop()
	var rec *recorder
	if traced {
		// The untraced half gives the baseline for trace.overhead_ratio
		// and the Go runtime's per-operation figures.
		half := window / 2
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0, pause0, ops0 := ms.TotalAlloc, ms.PauseTotalNs, res.attempted
		if err := st.run(time.Now().Add(half), nil, res); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		ops := float64(max(res.attempted-ops0, 1))
		res.set("go.alloc_mb_per_op", float64(ms.TotalAlloc-alloc0)/mb/ops)
		res.set("go.gc_pause_ms", float64(ms.PauseTotalNs-pause0)/1e6/ops)
		rec = newRecorder()
		if err := st.run(time.Now().Add(window-half), rec, res); err != nil {
			return err
		}
	} else if err := st.run(time.Now().Add(window), nil, res); err != nil {
		return err
	}

	fmt.Println(res.detail(prov))
	if rec != nil {
		path := filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-spans-%s-%d.json", name, seed))
		if err := rec.write(path, prov); err != nil {
			return err
		}
	}
	line, err := res.final(traced)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// provenance identifies the run behind a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitRev is the revision run.sh found ("+modified" for a dirty
	// tree); "unknown" when the sources were not a git checkout.
	GitRev string `json:"git_rev"`
}

func provenanceOf(name string, seed int64) provenance {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return provenance{Workload: name, Seed: seed, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: rev}
}

// write dumps the recorded spans with the run's provenance as JSON.
func (r *recorder) write(path string, prov provenance) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"provenance": prov, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
