// Command experiments regenerates the paper-reproduction tables — one
// experiment per figure/claim of the paper (internal/experiments documents
// each):
//
//	$ experiments -exp e2     # Figure 2/4 stamps
//	$ experiments -exp all    # everything
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"versionstamp/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	exp := fs.String("exp", "all", "experiment id (e1..e8) or \"all\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	registry := experiments.Registry()
	if *exp != "all" {
		fn, ok := registry[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", *exp, experiments.IDs())
		}
		report, err := fn()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report)
		return nil
	}
	for _, id := range experiments.IDs() {
		report, err := registry[id]()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(out, report)
	}
	return nil
}
