// Command freeride-workerd is the live-mode GPU node daemon: it hosts the
// simulated 4-GPU server — the pipeline-parallel training job and one side
// task worker per GPU — and exposes the workers to freeride-managerd over
// TCP. Training starts after -start-delay; when it completes, the daemon
// prints the harvest summary and exits. SIGINT or SIGTERM shuts it down
// earlier, without a summary.
//
// Example:
//
//	freeride-workerd -manager 127.0.0.1:7070 -ports 7081,7082,7083,7084 -epochs 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"freeride/internal/livemode"
	"freeride/internal/model"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "freeride-workerd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("freeride-workerd", flag.ContinueOnError)
	manager := fs.String("manager", "127.0.0.1:7070", "manager daemon address")
	ports := fs.String("ports", "7081,7082,7083,7084", "comma-separated worker listen ports (one per stage)")
	llmName := fs.String("model", "3.6b", "model to train")
	epochs := fs.Int("epochs", 4, "training epochs")
	mbs := fs.Int("microbatches", 4, "micro-batches per epoch")
	delay := fs.Duration("start-delay", 3*time.Second, "delay before training starts (lets the manager dial in)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	llm, err := model.LLMByName(*llmName)
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
	logger := log.New(os.Stdout, "workerd  ", log.Ltime|log.Lmicroseconds)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

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
