// m3rrun runs a registered workload on a simulated cluster with either
// engine, in integrated or server mode — a command-line JobClient.
//
// Usage:
//
//	go run ./cmd/m3rrun -job wordcount -engine m3r
//	go run ./cmd/m3rrun -job matvec -engine hadoop -nodes 8
//	go run ./cmd/m3rrun -job wordcount -engine m3r -server   # via TCP
//	go run ./cmd/m3rrun -job wordcount -cpuprofile cpu.prof -memprofile mem.prof
//
// The whole simulated cluster — every place, the cache, the pool, every task
// — is this one process, and places exchange frames through memory.
//
// Every knob is a conf key set with -D key=value (DESIGN.md lists them):
//
//	-D m3r.shuffle.budget.bytes=4096          per-job shuffle cap; overflow spills
//	-D m3r.engine.shuffle.budget.bytes=65536  engine pool (configures the cluster)
//	-D m3r.job.deadline.ms=30000              fail jobs that outlive the deadline
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/microbench"
	"m3r/internal/server"
	"m3r/internal/sysml"
	"m3r/internal/wordcount"
)

var (
	jobName    = flag.String("job", "wordcount", "workload: wordcount, matvec, microbench, pagerank, gnmf, linreg")
	engineName = flag.String("engine", "m3r", "engine: m3r or hadoop")
	nodes      = flag.Int("nodes", 4, "simulated cluster size")
	iterations = flag.Int("iters", 3, "iterations for iterative workloads")
	useServer  = flag.Bool("server", false, "submit through the TCP jobtracker protocol (server mode)")
	sizeMB     = flag.Int64("mb", 4, "input size in MB (wordcount)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile, taken as the run ends, to this file")
	confProps  propFlags
)

// propFlags collects repeatable -D key=value job configuration overrides,
// Hadoop's GenericOptionsParser idiom (e.g. -D m3r.shuffle.budget.bytes=4096).
type propFlags []string

func (p *propFlags) String() string { return strings.Join(*p, ",") }

func (p *propFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want key=value, got %q", v)
	}
	*p = append(*p, v)
	return nil
}

// engineBudget lifts an engine-scoped key out of the -D set: the pool and
// the cache ceiling are engine-lifetime state, so they configure the cluster
// (lab.Options), not a job. 0 when the key is not given.
func (p propFlags) engineBudget(key string) int64 {
	var n int64
	for _, kv := range p {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			var err error
			if n, err = strconv.ParseInt(v, 10, 64); err != nil {
				fmt.Fprintf(os.Stderr, "-D %s=%q is not an integer\n", k, v)
				os.Exit(2)
			}
		}
	}
	return n
}

// apply copies the -D overrides into job.
func (p propFlags) apply(job *conf.JobConf) *conf.JobConf {
	for _, kv := range p {
		k, v, _ := strings.Cut(kv, "=")
		job.Set(k, v)
	}
	return job
}

// confOverrideEngine applies the -D overrides to every job submitted
// through it, so the flag reaches jobs that workload drivers construct
// internally (matvec, microbench, the sysml pipelines).
type confOverrideEngine struct {
	engine.Engine
	props propFlags
}

// Submit implements engine.Engine.
func (e confOverrideEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	return e.Engine.Submit(e.props.apply(job))
}

// startProfiles creates the files -cpuprofile and -memprofile name — both
// before the run, so a path that cannot be written is a usage error and not
// a profile lost after the work — and starts the CPU profile. The function
// it returns stops the CPU profile and writes the heap profile. Only a run
// that reaches the end of main is profiled: the error exits leave the files
// empty.
func startProfiles() (stop func()) {
	create := func(name, path string) *os.File {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-%s: %v\n", name, err)
			flag.Usage()
			os.Exit(2)
		}
		return f
	}
	cpu, mem := create("cpuprofile", *cpuProfile), create("memprofile", *memProfile)
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Fatalf("-cpuprofile: %v", err)
			}
		}
		if mem != nil {
			runtime.GC() // so the in-use figures are of live objects
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
		}
	}
}

// printReport prints a job's report line and, for every phase the job
// entered, its spans, the real milliseconds they summed to over every place
// and its window — from its first span's start to its last span's end — as
// a share of the job's wall.
func printReport(r *engine.Report) {
	fmt.Println(r)
	for ph := range engine.NumPhases {
		t := r.Phases.Total(ph)
		if t.Count == 0 {
			continue
		}
		first, last := r.Phases.Window(ph)
		fmt.Printf("  phase %-10s %6d spans %10.3f ms  window %5.1f%% of wall\n",
			ph, t.Count, float64(t.Nanos)/1e6, 100*float64(last-first)/float64(max(r.Wall, 1)))
	}
}

func main() {
	flag.Var(&confProps, "D", "job configuration override key=value (repeatable)")
	flag.Parse()
	if flag.NArg() != 0 {
		// flag stops at the first non-flag, so every flag after it would be
		// silently ignored.
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	defer startProfiles()()
	cluster, err := lab.New(lab.Options{
		Nodes:              *nodes,
		ShuffleBudgetBytes: confProps.engineBudget(conf.KeyM3REngineShuffleBudget),
		CacheBudgetBytes:   confProps.engineBudget(conf.KeyM3RCacheBudget),
	})
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}
	defer cluster.Close()

	var eng engine.Engine
	switch *engineName {
	case "m3r":
		eng = cluster.M3R
	case "hadoop":
		eng = cluster.Hadoop
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engineName)
		os.Exit(2)
	}
	if *useServer {
		srv, err := server.Serve(eng, "127.0.0.1:0")
		if err != nil {
			log.Fatalf("starting server: %v", err)
		}
		defer srv.Close()
		client, err := server.Dial(srv.Addr())
		if err != nil {
			log.Fatalf("dialing server: %v", err)
		}
		fmt.Printf("submitting via server mode (%s)\n", srv.Addr())
		eng = client
	}
	if len(confProps) > 0 {
		eng = confOverrideEngine{Engine: eng, props: confProps}
	}

	switch *jobName {
	case "wordcount":
		if err := wordcount.Generate(cluster.FS, "/data/text", *sizeMB<<20, 42); err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Submit(wordcount.NewJob("/data/text", "/out/wc", *nodes, true))
		if err != nil {
			log.Fatal(err)
		}
		printReport(rep)
		fmt.Print(rep.Counters)
	case "matvec":
		cfg := matrix.Config{
			RowBlocks: 2 * *nodes, ColBlocks: 2 * *nodes, BlockSize: 100,
			Sparsity: 0.01, Partitions: 2 * *nodes, Dir: "/mv", Seed: 7,
		}
		if err := matrix.Generate(cluster.FS, cfg); err != nil {
			log.Fatal(err)
		}
		_, reports, err := matrix.RunIterations(eng, cfg, *iterations)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range reports {
			printReport(r)
		}
	case "microbench":
		cfg := microbench.Config{
			Pairs: 2000, ValueBytes: 2048, Percent: 50,
			Iterations: *iterations, Partitions: *nodes, Dir: "/mb", Seed: 1,
		}
		if err := microbench.Generate(cluster.FS, cfg); err != nil {
			log.Fatal(err)
		}
		reports, err := microbench.Run(eng, cfg)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range reports {
			printReport(r)
		}
	case "pagerank", "gnmf", "linreg":
		d, err := sysml.NewDriver(eng, "/sysml", *nodes)
		if err != nil {
			log.Fatal(err)
		}
		switch *jobName {
		case "pagerank":
			_, err = sysml.PageRank(d, sysml.PageRankConfig{
				Nodes: 400, BlockSize: 100, Sparsity: 0.01, Iterations: *iterations, Seed: 21,
			})
		case "gnmf":
			_, _, err = sysml.GNMF(d, sysml.GNMFConfig{
				Rows: 400, Cols: 200, Rank: 10, BlockSize: 100,
				Sparsity: 0.01, Iterations: *iterations, Seed: 41,
			})
		case "linreg":
			_, err = sysml.LinReg(d, sysml.LinRegConfig{
				Points: 400, Vars: 100, BlockSize: 100, Iterations: *iterations, Seed: 31,
			})
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range d.Reports {
			printReport(r)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown job %q\n", *jobName)
		os.Exit(2)
	}
}
