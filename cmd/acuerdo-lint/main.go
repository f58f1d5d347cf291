// Command acuerdo-lint is the multichecker driver for the determinism and
// ring-view lint suite in internal/lint. It type-checks the requested
// packages and runs every analyzer over the packages it applies to (scope is
// per analyzer — see lint.Analyzer.InScope: internal/sweep is exempt from
// nowallclock and simproc, and exportdoc covers only the harness API
// packages).
//
// Usage:
//
//	go run ./cmd/acuerdo-lint [-list] [-json] [packages]
//
// With no package arguments it checks ./.... Findings print as
// file:line:col: message (analyzer); with -json the full result (diagnostics
// plus type errors) is emitted as one JSON object on stdout, the format CI
// archives as an artifact. A finding can be locally waived with a
// "//lint:ignore <analyzer> <justification>" comment on, or directly above,
// the offending line — the justification is mandatory, and a directive
// missing it (or naming an unknown analyzer) is itself a diagnostic.
//
// Exit codes: 0 when clean, 1 when any diagnostic fired, 2 on load, type, or
// internal errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"acuerdo/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: acuerdo-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, az := range analyzers {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "acuerdo-lint:", err)
		return 2
	}
	res, err := lint.CheckDir(cwd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acuerdo-lint:", err)
		return 2
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "acuerdo-lint:", err)
			return 2
		}
	} else {
		for _, terr := range res.TypeErrors {
			fmt.Fprintln(os.Stderr, "acuerdo-lint:", terr)
		}
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
	}

	switch {
	case len(res.TypeErrors) > 0:
		return 2
	case len(res.Diagnostics) > 0:
		return 1
	}
	return 0
}
