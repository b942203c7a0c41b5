// Command freeride-sim is FreeRide's one front door. Its first argument
// selects a verb; with none, or a flag first, it runs the run verb:
//
//   - run: one co-location experiment on the simulated testbed, printing the
//     paper's metrics: training time increase I and dollar cost savings S.
//   - profile: the offline profilers (paper §4.3). -bubbles measures each
//     stage's bubble shapes for a model/schedule combination; -task measures
//     a side task's GPU memory footprint and per-step duration.
//   - experiments: the paper's tables and figures, printed as text.
//   - manager: the live-mode side task manager daemon. It listens for bubble
//     reports and notifications from a GPU node (the worker verb), dials the
//     node's per-stage workers, and runs the paper's Algorithms 1 and 2 over
//     real TCP until SIGINT or SIGTERM.
//   - worker: the live-mode GPU node daemon. It hosts the simulated 4-GPU
//     server — the pipeline-parallel training job and one side task worker
//     per GPU — and exposes the workers to the manager over TCP. Training
//     starts after -start-delay; when it completes, the daemon prints the
//     harvest summary and exits. SIGINT or SIGTERM ends it earlier, without
//     a summary.
//
// Example:
//
//	freeride-sim -method iterative -tasks pagerank,resnet18,image,vgg19 -mixed
//	freeride-sim run -method mps -tasks graphsgd -model 3.6b -epochs 32
//	freeride-sim profile -bubbles -model 3.6b -microbatches 4
//	freeride-sim profile -task resnet18 -mode iterative
//	freeride-sim experiments -run table2,fig9 -epochs 16
//	freeride-sim worker -manager 127.0.0.1:7070 -ports 7081,7082,7083,7084
//	freeride-sim manager -listen :7070 -tasks resnet18,pagerank \
//	  -workers 127.0.0.1:7081,127.0.0.1:7082,127.0.0.1:7083,127.0.0.1:7084
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"freeride"
	"freeride/internal/experiments"
	"freeride/internal/livemode"
	"freeride/internal/model"
	"freeride/internal/profiler"
	"freeride/internal/sidetask"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "freeride-sim:", err)
		os.Exit(1)
	}
}

// verbs maps each verb to its runner, which parses the arguments after it.
var verbs = map[string]func(args []string) error{
	"run":         runSim,
	"profile":     runProfile,
	"experiments": runExperiments,
	"manager":     runManager,
	"worker":      runWorker,
}

func run(args []string) error {
	verb := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
	}
	f, ok := verbs[verb]
	if !ok {
		return fmt.Errorf("unknown verb %q (verbs: run, profile, experiments, manager, worker)", verb)
	}
	return f(args)
}

// modelFlags registers -model and -microbatches on fs. The returned func
// resolves -model after fs.Parse.
func modelFlags(fs *flag.FlagSet, usage string) (llm func() (model.LLM, error), mbs *int) {
	name := fs.String("model", "3.6b", usage+": 1.2b|3.6b|6b")
	mbs = fs.Int("microbatches", 4, "micro-batches per epoch")
	return func() (model.LLM, error) { return model.LLMByName(*name) }, mbs
}

// daemon returns a daemon's logger, which writes to stdout behind prefix, and
// a channel that receives SIGINT and SIGTERM until stop is called.
func daemon(prefix string) (logger *log.Logger, sig chan os.Signal, stop func()) {
	sig = make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	return log.New(os.Stdout, prefix, log.Ltime|log.Lmicroseconds), sig, func() { signal.Stop(sig) }
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("freeride-sim run", flag.ContinueOnError)
	method := fs.String("method", "iterative", "co-location method: iterative|imperative|mps|naive")
	tasks := fs.String("tasks", "resnet18", "comma-separated side tasks: resnet18,resnet50,vgg19,pagerank,graphsgd,image")
	llmFlag, mbs := modelFlags(fs, "main model")
	epochs := fs.Int("epochs", 32, "training epochs")
	seed := fs.Int64("seed", 1, "simulation seed")
	mixed := fs.Bool("mixed", false, "place one instance per task (mixed workload) instead of one per eligible worker")
	realWork := fs.Bool("realwork", true, "run real side-task computation (PageRank, SGD-MF, NN training, image ops)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := freeride.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.MicroBatches = *mbs
	cfg.Seed = *seed
	if !*realWork {
		cfg.WorkScale = sidetask.WorkNone
	}
	llm, err := llmFlag()
	if err != nil {
		return err
	}
	cfg.LLM = llm
	m, ok := map[string]freeride.Method{"iterative": freeride.MethodIterative,
		"imperative": freeride.MethodImperative, "mps": freeride.MethodMPS, "naive": freeride.MethodNaive}[*method]
	if !ok {
		return fmt.Errorf("unknown method %q", *method)
	}
	cfg.Method = m

	fmt.Printf("measuring baseline (no side tasks)...\n")
	tNo, err := freeride.BaselineTrainTime(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("T_noSideTask = %.2fs (%d epochs of %s)\n\n", tNo.Seconds(), cfg.Epochs, llm.Name)

	sess, err := freeride.NewSession(cfg)
	if err != nil {
		return err
	}
	for i, name := range strings.Split(*tasks, ",") {
		profile, err := model.TaskByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		if *mixed {
			if err := sess.Submit(profile, i%cfg.Stages); err != nil {
				return fmt.Errorf("submit %s: %w", profile.Name, err)
			}
			fmt.Printf("submitted %-10s (1 instance)\n", profile.Name)
		} else {
			n, err := sess.SubmitEverywhere(profile)
			if err != nil {
				return fmt.Errorf("submit %s: %w", profile.Name, err)
			}
			fmt.Printf("submitted %-10s on %d workers (stages %v)\n",
				profile.Name, n, sess.EligibleStages(profile))
		}
	}

	fmt.Printf("\nrunning co-located training (%s)...\n", cfg.Method)
	res, err := sess.Run()
	if err != nil {
		return err
	}
	rep := res.CostReport(tNo)

	fmt.Printf("\n== results ==\n")
	fmt.Printf("T_withSideTasks    = %.2fs\n", rep.TWith.Seconds())
	fmt.Printf("time increase I    = %.2f%%\n", 100*rep.I)
	fmt.Printf("training cost      = $%.4f (baseline $%.4f)\n", rep.CWith, rep.CNo)
	fmt.Printf("side-task value    = $%.4f (Server-II replacement cost)\n", rep.CSideTasks)
	fmt.Printf("cost savings S     = %.2f%%\n", 100*rep.S)
	fmt.Printf("side-task steps    = %d\n", res.TotalSteps())
	for _, tw := range res.Tasks {
		fmt.Printf("  %-14s worker %d: %6d steps, %8.2fs GPU, %6.2fs host, %6.2fs skipped\n",
			tw.Name, tw.Worker, tw.Steps, tw.KernelTime.Seconds(), tw.HostTime.Seconds(), tw.InsuffWait.Seconds())
	}
	if cfg.Method == freeride.MethodIterative || cfg.Method == freeride.MethodImperative {
		st := res.ManagerStats
		fmt.Printf("manager: %d bubbles (%.1fs), %d served, %d expired, %d RPCs\n",
			st.BubblesAdded, st.BubbleTimeTotal.Seconds(), st.BubblesServed, st.BubblesExpired, st.RPCs)
	}
	return nil
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("freeride-sim profile", flag.ContinueOnError)
	bubbles := fs.Bool("bubbles", false, "profile pipeline bubbles")
	llmFlag, mbs := modelFlags(fs, "main model for bubble profiling")
	taskName := fs.String("task", "", "side task to profile (resnet18, pagerank, ...)")
	mode := fs.String("mode", "iterative", "side-task interface: iterative|imperative")
	seed := fs.Int64("seed", 1, "profiling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*bubbles && *taskName == "" {
		return fmt.Errorf("nothing to do: pass -bubbles and/or -task NAME")
	}
	m, ok := map[string]sidetask.Mode{"iterative": sidetask.ModeIterative, "imperative": sidetask.ModeImperative}[*mode]
	if !ok {
		return fmt.Errorf("unknown -mode %q (want iterative or imperative)", *mode)
	}

	if *bubbles {
		llm, err := llmFlag()
		if err != nil {
			return err
		}
		cfg := freeride.DefaultConfig()
		cfg.LLM = llm
		cfg.MicroBatches = *mbs
		sess, err := freeride.NewSession(cfg)
		if err != nil {
			return err
		}
		prof := sess.Profile
		fmt.Printf("bubble profile: %s, %d stages, %d micro-batches\n", llm.Name, cfg.Stages, *mbs)
		fmt.Printf("epoch span %.2fs, bubble rate %.1f%%\n\n", prof.EpochSpan.Seconds(), 100*prof.BubbleRate())
		for _, sp := range prof.Stages {
			fmt.Printf("stage %d: available memory %.1f GB, bubble time %.2fs/epoch\n",
				sp.Stage, float64(sp.MemAvailable)/float64(model.GiB), sp.BubbleTime.Seconds())
			for _, tpl := range sp.Templates {
				fmt.Printf("  type-%s at +%.2fs for %.2fs\n", tpl.Type, tpl.Offset.Seconds(), tpl.Duration.Seconds())
			}
		}
		fmt.Println()
	}

	if *taskName != "" {
		profile, err := model.TaskByName(*taskName)
		if err != nil {
			return err
		}
		res, err := profiler.Profile(profiler.BuiltinFactory(profile, m, sidetask.WorkSmall), profiler.Options{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("side-task profile: %s (%s interface)\n", profile.Name, m)
		fmt.Printf("  gpu_memory_requirement: %.2f GB\n", float64(res.MemBytes)/float64(model.GiB))
		if res.StepTime > 0 {
			fmt.Printf("  per_step_duration:      %.4fs (over %d steps)\n", res.StepTime.Seconds(), res.Steps)
		} else {
			fmt.Printf("  per_step_duration:      n/a (imperative tasks are not step-wise)\n")
		}
		fmt.Printf("  create_time:            %.2fs\n", res.CreateTime.Seconds())
		fmt.Printf("  init_time:              %.2fs\n", res.InitTime.Seconds())
	}
	return nil
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("freeride-sim experiments", flag.ContinueOnError)
	which := fs.String("run", "all", "comma-separated experiment ids, 'all', or 'list' to list them")
	epochs := fs.Int("epochs", 16, "training epochs per run (paper: 128)")
	seed := fs.Int64("seed", 1, "simulation seed (per-cell seeds of every sweep derive from it)")
	realWork := fs.Bool("realwork", false, "run real side-task computation during sweeps (slower)")
	cross := fs.Bool("cross", false, "widen the sweeps that have a fast default slice to their full cross product (schedules, serving)")
	shard := fs.String("shard", "", "run only shard k of n of every experiment's grid, as k/n: the cells whose index mod n is k (fig1 has no grid)")
	csvDir := fs.String("csv", "", "directory to write per-sweep CSV files into (every experiment with a CSV emitter)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var list strings.Builder
	var ids []string
	for _, e := range experiments.Registered() {
		fmt.Fprintf(&list, "%-9s %s\n", e.Name, e.Desc)
		ids = append(ids, e.Name)
	}
	if *which == "list" {
		fmt.Print(list.String())
		return nil
	}
	opts := experiments.Options{Epochs: *epochs, Seed: *seed, WorkScale: sidetask.WorkNone, Cross: *cross}
	if *realWork {
		opts.WorkScale = sidetask.WorkSmall
	}
	if *shard != "" {
		// Atoi, not Sscanf: the whole of each half must be a number.
		k, n, _ := strings.Cut(*shard, "/")
		var errK, errN error
		opts.Shard, errK = strconv.Atoi(k)
		opts.ShardCount, errN = strconv.Atoi(n)
		if err := errors.Join(errK, errN); err != nil {
			return fmt.Errorf("bad -shard %q (want k/n): %w", *shard, err)
		}
		if opts.ShardCount < 1 || opts.Shard < 0 || opts.Shard >= opts.ShardCount {
			return fmt.Errorf("bad -shard %q: k must be in [0,n)", *shard)
		}
	}

	// Resolve every requested id before running anything: an unknown id —
	// even alongside valid ones — is a hard error, not a silent skip.
	var selected []experiments.Entry
	if *which == "all" {
		selected = experiments.Registered()
	} else {
		seen := map[string]bool{}
		for _, name := range strings.Split(*which, ",") {
			name = strings.TrimSpace(name)
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			e, ok := experiments.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown experiment %q (valid ids: %s)", name, strings.Join(ids, ","))
			}
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no experiments matched %q (use -run list)", *which)
	}
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := writeCSV(*csvDir, e.Name, res); err != nil {
			return fmt.Errorf("%s: csv: %w", e.Name, err)
		}
		fmt.Printf("===== %s — %s (%.1fs) =====\n%s\n", e.Name, e.Desc, time.Since(start).Seconds(), res.Render())
	}
	return nil
}

// writeCSV writes dir/name.csv when dir is set and res implements
// experiments.CSVWriter.
func writeCSV(dir, name string, res experiments.Rendered) error {
	emitter, ok := res.(experiments.CSVWriter)
	if dir == "" || !ok {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	if err := emitter.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runManager(args []string) error {
	fs := flag.NewFlagSet("freeride-sim manager", flag.ContinueOnError)
	listen := fs.String("listen", ":7070", "address for node notifications and bubble reports")
	workers := fs.String("workers", "", "comma-separated worker endpoints in stage order")
	tasks := fs.String("tasks", "", "comma-separated side tasks to submit")
	llmFlag, mbs := modelFlags(fs, "model trained on the node (for memory accounting)")
	retry := fs.Duration("retry", 20*time.Second, "how long to keep retrying worker connections")
	lease := fs.Duration("lease", 0, "worker lease for the failure detector; tasks on a worker silent for a full lease are re-placed from their last checkpoint (0 disables recovery)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	llm, err := llmFlag()
	if err != nil {
		return err
	}
	if *workers == "" {
		return fmt.Errorf("-workers names no worker endpoint")
	}
	logger, sig, stop := daemon("managerd ")
	defer stop()

	d, err := livemode.StartManager(livemode.ManagerConfig{
		ListenAddr: *listen,
		Model:      llm,
		MicroBatch: *mbs,
		Lease:      *lease,
		Logf:       logger.Printf,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	logger.Printf("listening on %s", d.Addr())

	addrs, deadline := strings.Split(*workers, ","), time.Now().Add(*retry)
	for err := d.ConnectWorkers(addrs); err != nil; err = d.ConnectWorkers(addrs) {
		if time.Now().After(deadline) {
			return fmt.Errorf("connect workers: %w", err)
		}
		logger.Printf("workers not ready (%v); retrying...", err)
		select {
		case s := <-sig:
			logger.Printf("%v: shutting down before the workers were linked", s)
			return nil
		case <-time.After(time.Second):
		}
	}
	d.Eng.Do(func() {
		for _, name := range strings.Split(*tasks, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			p, err := model.TaskByName(name)
			if err == nil {
				err = d.Session.Submit(p, 0)
			}
			if err != nil {
				logger.Printf("submit %s rejected: %v", name, err)
			}
		}
	})

	<-sig
	d.Eng.Do(func() {
		st := d.Session.Manager.Stats()
		logger.Printf("shutting down: %d bubbles received (%.1fs), %d served, %d RPCs",
			st.BubblesAdded, st.BubbleTimeTotal.Seconds(), st.BubblesServed, st.RPCs)
	})
	return nil
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("freeride-sim worker", flag.ContinueOnError)
	manager := fs.String("manager", "127.0.0.1:7070", "manager daemon address")
	ports := fs.String("ports", "7081,7082,7083,7084", "comma-separated worker listen ports (one per stage)")
	llmFlag, mbs := modelFlags(fs, "model to train")
	epochs := fs.Int("epochs", 4, "training epochs")
	delay := fs.Duration("start-delay", 3*time.Second, "delay before training starts (lets the manager dial in)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	llm, err := llmFlag()
	if err != nil {
		return err
	}
	var addrs []string
	for _, p := range strings.Split(*ports, ",") {
		if p = strings.TrimSpace(p); p == "" {
			return fmt.Errorf("-ports %q has an empty entry", *ports)
		}
		addrs = append(addrs, ":"+p)
	}
	logger, sig, stop := daemon("workerd  ")
	defer stop()

	node, err := livemode.StartNode(livemode.NodeConfig{
		ListenAddrs: addrs,
		ManagerAddr: *manager,
		Model:       llm,
		MicroBatch:  *mbs,
		Epochs:      *epochs,
		StartDelay:  *delay,
		Logf:        logger.Printf,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	logger.Printf("workers listening on %s", strings.Join(node.WorkerAddrs, ", "))

	select {
	case <-node.TrainDone:
	case s := <-sig:
		logger.Printf("%v: shutting down before training completed", s)
		return nil
	}
	time.Sleep(500 * time.Millisecond) // let the final pause land
	node.Eng.Do(func() {
		if err = node.Session.Trainer.Err(); err != nil {
			return
		}
		logger.Printf("training complete in %.2fs", node.Session.Trainer.TotalTime().Seconds())
		for i, w := range node.Session.Workers {
			st := w.Stats()
			logger.Printf("worker%d: %d created, %d starts, %d pauses, %d kills",
				i, st.Created, st.Starts, st.Pauses, st.GraceKills+st.InitKills)
		}
	})
	if err != nil {
		return fmt.Errorf("training failed: %w", err)
	}
	return nil
}
