// Command freeride-managerd is the live-mode side task manager daemon: it
// listens for bubble reports and notifications from a GPU node
// (freeride-workerd), dials the node's per-stage workers, and runs the
// paper's Algorithms 1 and 2 over real TCP.
//
// Example (after starting freeride-workerd):
//
//	freeride-managerd -listen :7070 \
//	  -workers 127.0.0.1:7081,127.0.0.1:7082,127.0.0.1:7083,127.0.0.1:7084 \
//	  -tasks resnet18,pagerank
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
		fmt.Fprintln(os.Stderr, "freeride-managerd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("freeride-managerd", flag.ContinueOnError)
	listen := fs.String("listen", ":7070", "address for node notifications and bubble reports")
	workers := fs.String("workers", "", "comma-separated worker endpoints in stage order")
	tasks := fs.String("tasks", "", "comma-separated side tasks to submit")
	llmName := fs.String("model", "3.6b", "model trained on the node (for memory accounting)")
	mbs := fs.Int("microbatches", 4, "micro-batches on the node")
	retry := fs.Duration("retry", 20*time.Second, "how long to keep retrying worker connections")
	lease := fs.Duration("lease", 0, "worker lease for the failure detector; tasks on a worker silent for a full lease are re-placed from their last checkpoint (0 disables recovery)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	llm, err := model.LLMByName(*llmName)
	if err != nil {
		return err
	}
	if *workers == "" {
		return fmt.Errorf("-workers names no worker endpoint")
	}
	logger := log.New(os.Stdout, "managerd ", log.Ltime|log.Lmicroseconds)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

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
