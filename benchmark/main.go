// Command benchmark is the repo's performance yardstick: six workloads
// over the simulator, the region server and the RPC pool, measured
// from outside in one foreground process. BENCHMARK.json at the repo
// root declares the command, the workloads and every metric; README.md
// in this directory says why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output, one per workload.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	seed      int64
	seconds   float64
	reps      int // > 0: exactly this many timed passes instead of a time budget
	trace     bool
	traceFile string
	smoke     bool
	par       int // GOMAXPROCS and every in-flight count: min(nproc, 4)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	started := time.Now()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated list, or all")
	o := options{}
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the program under test sees only inputs generated from it")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long the timed passes of one workload run")
	fs.IntVar(&o.reps, "reps", 0, "run exactly this many timed passes instead of -seconds")
	traceMode := fs.Int("trace", 0, "0: untraced timed passes, end-to-end metrics; 1: one traced pass plus layer probes, per-layer metrics")
	fs.StringVar(&o.traceFile, "trace-file", "", "with -trace 1, also write the Chrome trace JSON here (open in Perfetto)")
	fs.BoolVar(&o.smoke, "smoke", false, "cut every size about 50x (tests)")
	maxSeconds := fs.Float64("max-seconds", 170, "hard watchdog: report failure and exit non-zero after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceMode != 0
	if o.smoke && o.reps == 0 {
		o.reps = 2
	}
	o.par = runtime.NumCPU()
	if o.par > 4 {
		o.par = 4
	}
	runtime.GOMAXPROCS(o.par)

	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		if n == "all" {
			selected = append(selected, workloads...)
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}

	// The watchdog is the only goroutine that outlives a workload. It
	// never hangs the process: it reports what is known and exits.
	var (
		mu      sync.Mutex
		current string
	)
	watchdog := time.AfterFunc(time.Duration(*maxSeconds*float64(time.Second)), func() {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(stderr, "benchmark: watchdog: workload %q still running after %.0fs; giving up\n", current, *maxSeconds)
		printReport(stdout, report{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]value{}})
		os.Exit(3)
	})
	defer watchdog.Stop()

	baseline := runtime.NumGoroutine()
	status := 0
	for _, w := range selected {
		mu.Lock()
		current = w.name
		mu.Unlock()
		out := runWorkload(w, o)
		leaked := goroutinesLeaked(baseline)
		children := childProcesses()
		if leaked != 0 {
			out.fail("%d goroutines outlived the workload", leaked)
		}
		if children != 0 {
			out.fail("%d child processes at exit", children)
		}
		if o.trace {
			out.set("bench.generator_goroutines", 1)
			out.set("bench.goroutines_leaked", float64(leaked))
			out.set("bench.child_processes_at_exit", float64(children))
			out.set("bench.wall_total_s", time.Since(started).Seconds())
		}
		rep := out.report(o.trace)
		out.printTable(stderr, w.name, o)
		mu.Lock()
		printReport(stdout, rep)
		mu.Unlock()
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

func printReport(w io.Writer, r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Fprintln(w, string(b))
}

// goroutinesLeaked waits briefly for goroutines that are already on
// their way out (closed connections, drained lanes) and returns how
// many more than the baseline remain.
func goroutinesLeaked(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// childProcesses counts live processes whose parent is this one.
func childProcesses() int {
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if c := e.Name()[0]; c < '0' || c > '9' {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // the process ended while we were listing
		}
		// pid (comm) state ppid ...; comm may contain spaces, so split
		// after its closing parenthesis.
		s := string(stat)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) >= 2 && f[1] == fmt.Sprint(self) {
			n++
		}
	}
	return n
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
