// Command benchrunner regenerates every experiment table of the
// reproduction (see internal/experiments/tables.go for the per-experiment
// index and the BENCH_PR*.json files for recorded results).
//
// Usage:
//
//	benchrunner [-scale N] [-only T4,T7] [-json]
//
// Scale 1 (default) finishes in seconds; larger scales sweep bigger
// instances. With -json the tables are emitted as one JSON document
// (schema below) so per-PR perf trajectories can be captured as
// BENCH_PR<n>.json files (make bench-json PR=<n>):
//
//	benchrunner -json > BENCH_PR1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"querylearn/internal/experiments"
)

// benchDoc is the -json output schema.
type benchDoc struct {
	SchemaVersion int                  `json:"schema_version"`
	Scale         int                  `json:"scale"`
	GoOS          string               `json:"goos"`
	GoArch        string               `json:"goarch"`
	NumCPU        int                  `json:"num_cpu"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Tables        []*experiments.Table `json:"tables"`
}

func main() {
	scale := flag.Int("scale", 1, "experiment scale factor (1 = quick)")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. T4,T7); empty = all")
	asJSON := flag.Bool("json", false, "emit tables as one JSON document instead of text")
	flag.Parse()

	// Resolve the -only filter against the registry BEFORE running anything,
	// so a single-experiment smoke run does not pay for the whole suite.
	var ids []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	kept := experiments.Only(ids, *scale)
	if len(kept) == 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: no experiments matched -only filter")
		os.Exit(1)
	}
	if *asJSON {
		doc := benchDoc{
			SchemaVersion: 1,
			Scale:         *scale,
			GoOS:          runtime.GOOS,
			GoArch:        runtime.GOARCH,
			NumCPU:        runtime.NumCPU(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			Tables:        kept,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range kept {
		fmt.Println(t.Render())
	}
}
