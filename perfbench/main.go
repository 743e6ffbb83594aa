// Command perfbench is briq's repository benchmark. For one workload it
// boots the real briq-server binary on a briq-train model bundle and a fresh
// store, drives it over HTTP with inputs generated from the seed, checks
// every answer against an in-process oracle, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics of an in-process traced
// run over the same inputs — as the last line of standard output.
//
//	bash perfbench/run.sh --workload align-cold --seed 1 --seconds 20 --trace 0
//
// See README.md beside this file for the workloads, the metrics and the map
// from each layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: align-cold or recrawl")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time of the workload's own phase, seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced in-process run")
	bin := flag.String("bin", "", "directory holding the briq-server binary")
	model := flag.String("model", "", "briq-train model bundle")
	work := flag.String("work", "", "scratch directory for stores, traces and reports")
	flag.Parse()
	if *bin == "" || *model == "" || *work == "" {
		fatalf("-bin, -model and -work are required (run through perfbench/run.sh)")
	}
	pl, err := planFor(*workload, float64(*seconds))
	if err != nil {
		fatalf("%v", err)
	}

	// The client's own collections would compete with the server for CPU;
	// its heap is small, so it collects rarely.
	debug.SetGCPercent(400)

	runDir := filepath.Join(*work, "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(runDir)

	b := &bench{
		workload: *workload, seed: *seed, plan: pl, bin: *bin, model: *model, dir: runDir, work: *work,
		report: map[string]any{},
	}
	res, err := b.run(context.Background(), *trace == 1)
	if err != nil {
		os.RemoveAll(runDir)
		fatalf("%v", err)
	}
	if err := b.writeReport(filepath.Join(*work, "reports")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write report: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// writeReport prints the run's detailed report (sample counts, tail
// percentiles, ladder rungs, generator health, run metadata) as one JSON
// line and keeps a copy under dir.
func (b *bench) writeReport(dir string) error {
	data, err := json.Marshal(map[string]any{"report": b.report})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
