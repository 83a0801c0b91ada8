// Command benchmark is the repository's end-to-end benchmark. Each workload
// regenerates a paper figure through its public harness entry point, one
// simulation at a time, for a fixed number of seconds, in a child process
// of its own; the command reports the median pass time and set-up time at a
// fixed host speed and the median peak memory of a pass, and checks every
// simulated cell against pinned output digests. With --trace 1 it profiles
// the same passes and attributes CPU time and allocation to layers (the
// repository's Go packages) instead.
//
// Run from the repository root:
//
//	bash benchmark/run.sh --workload fig5 --seed 0 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md defines the workloads
// and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	pin      string
	child    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: fig5, fig10, mobility, or all")
	fs.Int64Var(&o.seed, "seed", 0, "input seed, the harness BaseSeed (7 is held out for checking claims)")
	fs.Float64Var(&o.seconds, "seconds", 30, "measure each workload for at least this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 profiles the run and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", "", "with --trace 1, write spans and profiles into this directory")
	fs.StringVar(&o.pin, "pin", "", "write the pinned digests for seeds 0 and 7 into this directory and exit")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (the parent starts one child per workload)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	case o.out != "" && o.trace == 0:
		return o, errors.New("--out needs --trace 1")
	}
	if _, ok := workloadByName(o.workload); !ok && (o.workload != "all" || o.child) {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(2)
	}
	switch {
	case o.pin != "":
		err = pin(o.pin)
	case o.child:
		err = runChild(o, os.Stdout)
	default:
		err = runParent(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is one workload's result, passed from the child to the parent.
type report struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// runWorkload measures one workload at the given size and reports its
// end-to-end metrics, or its per-layer metrics when traced.
func runWorkload(w workload, s size, seed int64, seconds float64, traced bool, pinned []string) (report, *measurement, error) {
	if traced {
		runtime.MemProfileRate = 64 << 10
	}
	m, err := measure(w, s, seed, seconds, traced, pinned)
	if m == nil {
		return report{}, nil, err
	}
	rep := report{Attempted: m.cells, Failed: m.failed}
	if err == nil {
		if traced {
			rep.Metrics = perLayer(m)
		} else {
			rep.Metrics = endToEnd(m)
		}
	}
	return rep, m, err
}

// runChild measures one workload in this process and writes its report as
// the last line of stdout.
func runChild(o options, stdout io.Writer) error {
	w, _ := workloadByName(o.workload)
	pinned, _ := pinnedDigests(w.name, o.seed)
	rep, m, err := runWorkload(w, w.bench, o.seed, o.seconds, o.trace == 1, pinned)
	if m != nil {
		fmt.Fprintf(os.Stderr, "%s: seed %d, %d untraced and %d traced passes, %d cells, %d failed; "+
			"median pass %.4f s on the host, reference %.4f ms\n",
			w.name, o.seed, len(m.walls), len(m.tracedWalls), m.cells, m.failed,
			median(m.raws).Seconds(), float64(median(m.refs))/1e6)
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		return writeTrace(o.out, w.name, m)
	}
	return nil
}

// writeTrace writes a traced run's spans as NDJSON and its profiles in
// pprof format, readable with go tool pprof.
func writeTrace(dir, name string, m *measurement) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans bytes.Buffer
	if err := m.rec.writeNDJSON(&spans); err != nil {
		return err
	}
	files := map[string][]byte{
		name + ".spans.ndjson": spans.Bytes(),
		name + ".allocs.pprof": m.heap,
	}
	for i, p := range m.profiles {
		files[fmt.Sprintf("%s.cpu%d.pprof", name, i)] = p
	}
	for f, data := range files {
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runParent runs each selected workload in its own child process, so that
// no workload runs on another's heap, prints every metric, and ends with the
// result object. It fails when any cell failed.
func runParent(o options, stdout io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, name := range names {
		rep, err := runChildProcess(self, name, o)
		if err != nil {
			return err
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		fmt.Fprintf(stdout, "%-9s %-36s %14d %s\n", name, "cells", rep.Attempted, "count")
		fmt.Fprintf(stdout, "%-9s %-36s %14d %s\n", name, "failed_cells", rep.Failed, "count")
		for _, m := range rep.Metrics {
			key := m.Name
			if len(names) > 1 {
				key = name + "." + m.Name
			}
			res.Metrics[key] = value{m.Value, m.Unit}
			fmt.Fprintf(stdout, "%-9s %-36s %14.6g %-6s %s\n", name, m.Name, m.Value, m.Unit, m.Base)
		}
	}
	res.Correct = res.Failed == 0
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d cells failed", res.Failed, res.Attempted)
	}
	return nil
}

// runChildProcess runs one workload in a child process and returns its
// report.
func runChildProcess(self, name string, o options) (report, error) {
	cmd := exec.Command(self, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-out", o.out)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var rep report
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || (runErr != nil && rep.Failed == 0) {
		// A child that failed without failing a cell broke down itself:
		// there is no result to report.
		return report{}, fmt.Errorf("%s: child process failed: %v", name, errors.Join(runErr, err))
	}
	return rep, nil
}
