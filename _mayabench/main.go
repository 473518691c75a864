package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: fleet-uniform, fleet-mixed, attack or suite (empty: each in its own child process)")
	seed := flag.Uint64("seed", 1, "seed every input of the workload derives from")
	seconds := flag.Int("seconds", 12, "how long the timed passes run")
	traced := flag.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runChildren())
	}
	def, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "mayabench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	os.Exit(run(def, *seed, time.Duration(*seconds)*time.Second, *traced == 1))
}

// outDir is where a run writes, under the directory run.sh builds into,
// which .gitignore names: scratch files in a directory of the run's own,
// removed when it ends, and the traced run's trace.json and layers.json
// in trace/<workload>.
var outDir = filepath.Join(".bench_build", "mayabench")

// run measures one workload and prints its result; it returns the exit
// code.
func run(def workloadDef, seed uint64, budget time.Duration, traced bool) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mayabench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mayabench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := env{sz: defaultSizes(), tally: &tally{}, workDir: scratch}
	var res *result
	if traced {
		res, err = runTraced(def, e, seed, filepath.Join(outDir, "trace", def.name))
	} else {
		res, err = runEndToEnd(def, e, seed, budget)
	}
	if err == nil {
		err = printResult(os.Stdout, def.name, seed, res, e.tally)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mayabench:", err)
		return 1
	}
	if e.tally.failed > 0 {
		return 1
	}
	return 0
}

// printResult writes one JSON line per metric, the output digest, and as
// the last line the result object: correct, attempted, failed and every
// metric's value and unit.
func printResult(w io.Writer, workload string, seed uint64, r *result, t *tally) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(r.metrics))
	enc := json.NewEncoder(w)
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if err := enc.Encode(m); err != nil {
			return err
		}
		values[m.Name] = value{m.Value, m.Unit}
	}
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "digest": r.digest}); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, values})
}

// runChildren runs every workload in its own child process, with this
// process's flags, so each one's peak_rss_mib is its own. It returns the
// exit code: 1 if any child failed.
func runChildren() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mayabench:", err)
		return 1
	}
	code := 0
	for _, def := range workloads {
		args := []string{"--workload", def.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "mayabench: %s: %v\n", def.name, err)
			code = 1
		}
	}
	return code
}
