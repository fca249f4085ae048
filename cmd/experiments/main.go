// Command experiments regenerates the reproduction tables E1–E16 indexed in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments                  # run everything
//	experiments -run E4          # run one experiment
//	experiments -list            # list experiment IDs and titles
//
// The per-experiment solver, iteration and allocation baseline,
// BENCH_solvers.json, is written and gated by the root package's
// TestSuiteBaseline (`go test -run '^TestSuiteBaseline$' . -update`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("run", "", "run a single experiment by ID (e.g. E3)")
	list := fs.Bool("list", false, "list experiments and exit")
	asCSV := fs.Bool("csv", false, "emit CSV instead of an aligned table (with -run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := experiments.Registry()
	if err != nil {
		return err
	}
	if *list {
		for _, id := range reg.IDs() {
			e, err := reg.Get(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *only != "" {
		e, err := reg.Get(*only)
		if err != nil {
			return err
		}
		tbl, err := e.Run(obs.Nop())
		if err != nil {
			return err
		}
		if *asCSV {
			return tbl.WriteCSV(stdout)
		}
		return tbl.Fprint(stdout)
	}
	if *asCSV {
		return fmt.Errorf("experiments: -csv requires -run <id>")
	}
	return reg.RunAll(stdout)
}
