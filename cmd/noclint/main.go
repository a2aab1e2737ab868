// Command noclint runs the repository's domain-aware static-analysis
// suite (internal/lint) over the given package patterns and reports every
// finding with a file:line:col position.
//
// Usage:
//
//	noclint [-format text|json|sarif] [-only name1,name2] [-audit]
//	        [-workers n] [patterns...]
//
// Patterns default to ./... and accept the go tool's directory forms
// ("./...", "internal/lp", "internal/..."). Analysis runs one package per
// worker; output is byte-identical at any worker count.
//
// -audit switches to suppression-hygiene mode: instead of analyzer
// findings, noclint reports //lint:allow directives that carry no reason,
// name an unknown analyzer, or no longer suppress anything.
//
// Exit status is the tool's contract with CI: 0 when the tree is clean,
// 1 on any finding, and 2 when loading or type-checking failed — each
// failing package is named on stderr, and the packages that did load are
// still analyzed, so one broken directory degrades the run instead of
// blinding it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"nocdeploy/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	format := flag.String("format", "text", "output format: text, json or sarif")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	audit := flag.Bool("audit", false, "audit //lint:allow directives instead of running analyzers")
	workers := flag.Int("workers", 0, "packages analyzed concurrently (0 = all cores)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: noclint [-format text|json|sarif] [-only names] [-audit] [-workers n] [patterns...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", lint.AuditName, "(via -audit) reasonless, unknown-name or stale //lint:allow directives")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "noclint: unknown format %q (want text, json or sarif)\n", *format)
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "noclint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, loadErrs := lint.Load(flag.Args())
	for _, le := range loadErrs {
		fmt.Fprintf(os.Stderr, "noclint: %v\n", le)
	}

	var findings []lint.Finding
	if *audit {
		findings = lint.Audit(pkgs, analyzers)
	} else {
		findings = lint.RunParallel(pkgs, analyzers, *workers)
	}

	if err := emit(*format, findings, analyzers); err != nil {
		fmt.Fprintf(os.Stderr, "noclint: encoding findings: %v\n", err)
		return 2
	}
	if len(loadErrs) > 0 {
		fmt.Fprintf(os.Stderr, "noclint: %d package(s) failed to load (analyzed the remaining %d)\n",
			len(loadErrs), len(pkgs))
		return 2
	}
	if len(findings) > 0 {
		if *format == "text" {
			fmt.Fprintf(os.Stderr, "noclint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
		return 1
	}
	return 0
}

func emit(format string, findings []lint.Finding, analyzers []*lint.Analyzer) error {
	switch format {
	case "json":
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(findings)
	case "sarif":
		data, err := lint.MarshalSARIF(lint.ToSARIF(findings, analyzers))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	default:
		for _, f := range findings {
			fmt.Println(f.String())
		}
		return nil
	}
}
