// m3rrun runs a registered workload on a simulated cluster with either
// engine, in integrated or server mode — a command-line JobClient.
//
// Usage:
//
//	go run ./cmd/m3rrun -job wordcount -engine m3r
//	go run ./cmd/m3rrun -job matvec -engine hadoop -nodes 8
//	go run ./cmd/m3rrun -job wordcount -engine m3r -server   # via TCP
//	go run ./cmd/m3rrun -job wordcount -transport tcp        # worker processes
//
// With -transport tcp, m3rrun spawns one worker process per node (itself,
// re-executed in `m3rrun worker` mode), registers them with an in-process
// coordinator, and routes every cross-place shuffle frame through the
// destination node's worker over TCP. `m3rrun worker -coordinator addr`
// is that worker mode: register, serve frames, exit when the coordinator
// goes away.
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
	"os/exec"
	"strconv"
	"strings"
	"time"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/microbench"
	"m3r/internal/server"
	"m3r/internal/sysml"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

var (
	jobName    = flag.String("job", "wordcount", "workload: wordcount, matvec, microbench, pagerank, gnmf, linreg")
	engineName = flag.String("engine", "m3r", "engine: m3r or hadoop")
	nodes      = flag.Int("nodes", 4, "simulated cluster size")
	iterations = flag.Int("iters", 3, "iterations for iterative workloads")
	useServer  = flag.Bool("server", false, "submit through the TCP jobtracker protocol (server mode)")
	transport  = flag.String("transport", "inproc", "place transport: inproc (all places in this process) or tcp (one worker process per node)")
	sizeMB     = flag.Int64("mb", 4, "input size in MB (wordcount)")
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

// runWorker is the `m3rrun worker` entrypoint: a place's worker process.
// It registers with the coordinator, serves shuffle frames for its assigned
// place, and exits when the coordinator's registration connection drops.
func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coord := fs.String("coordinator", "", "coordinator address to register with (required)")
	fs.Parse(args)
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "m3rrun worker: -coordinator is required")
		os.Exit(2)
	}
	if err := server.RunWorker(*coord); err != nil {
		log.Fatalf("m3rrun worker: %v", err)
	}
}

// startTCPTransport spawns one `m3rrun worker` subprocess per node,
// registers them with an in-process coordinator, and returns the transport
// plus a teardown closing coordinator and workers.
func startTCPTransport(nodes int) (*x10.TCPTransport, func(), error) {
	coord, err := server.ServeCoordinator("127.0.0.1:0", nodes)
	if err != nil {
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		coord.Close()
		return nil, nil, err
	}
	procs := make([]*exec.Cmd, 0, nodes)
	stop := func() {
		coord.Close() // workers see the registration conn drop and exit
		for _, p := range procs {
			p.Wait()
		}
	}
	for i := 0; i < nodes; i++ {
		cmd := exec.Command(self, "worker", "-coordinator", coord.Addr())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		procs = append(procs, cmd)
	}
	if _, err := coord.WaitReady(30 * time.Second); err != nil {
		stop()
		return nil, nil, err
	}
	return coord.Transport(x10.TCPOptions{}), stop, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		runWorker(os.Args[2:])
		return
	}
	flag.Var(&confProps, "D", "job configuration override key=value (repeatable)")
	flag.Parse()
	var tr x10.Transport
	switch *transport {
	case "inproc":
	case "tcp":
		t, stop, err := startTCPTransport(*nodes)
		if err != nil {
			log.Fatalf("starting tcp transport workers: %v", err)
		}
		defer stop()
		fmt.Printf("tcp transport: %d worker processes registered\n", *nodes)
		tr = t
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}
	cluster, err := lab.New(lab.Options{
		Nodes:              *nodes,
		ShuffleBudgetBytes: confProps.engineBudget(conf.KeyM3REngineShuffleBudget),
		CacheBudgetBytes:   confProps.engineBudget(conf.KeyM3RCacheBudget),
		Transport:          tr,
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
		fmt.Println(rep)
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
			fmt.Println(r)
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
			fmt.Println(r)
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
			fmt.Println(r)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown job %q\n", *jobName)
		os.Exit(2)
	}
}
