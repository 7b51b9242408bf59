// Command pdgeval reproduces the paper's applicability experiment
// (Section 4.3, Figure 12): it generates 120 Csmith-style random
// programs — 20 for each pointer nesting depth from 2 to 7 — builds
// the Program Dependence Graph of each with BA alone and with BA+LT,
// and reports memory-node counts. More memory nodes mean a more
// precise graph. The paper reports 1,299 total nodes for BA and 8,114
// for BA+LT (6.23x) over its 120 programs. With -csv the output holds
// only the CSV rows; the averages and totals go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/figures"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	t, err := figures.PDG(figures.Batch{Jobs: runtime.NumCPU()}, "", figures.PerDepth)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	summary := os.Stdout
	if *csv {
		summary = os.Stderr
		fmt.Println("program,depth,ba_nodes,balt_nodes")
	} else {
		fmt.Printf("%-16s %6s %10s %10s\n", "program", "depth", "BA", "BA+LT")
	}
	for _, r := range t.Rows {
		switch {
		case r.Failed:
			fmt.Fprintf(os.Stderr, "%s: pdg construction degraded, program skipped\n%s", r.Name, r.Diag)
		case *csv:
			fmt.Printf("%s,%d,%d,%d\n", r.Name, r.Depth, r.BA, r.BALT)
		default:
			fmt.Printf("%-16s %6d %10d %10d\n", r.Name, r.Depth, r.BA, r.BALT)
		}
	}
	fmt.Fprintf(summary, "\nprograms: %d\n", len(t.Rows))
	fmt.Fprintln(summary, "\naverage memory nodes per depth bucket:")
	for _, d := range t.Depths {
		fmt.Fprintf(summary, "  depth %d: BA %6.1f   BA+LT %6.1f\n", d.Depth, d.BA, d.BALT)
	}
	fmt.Fprintf(summary, "\ntotal memory nodes: BA %d, BA+LT %d  (%.2fx)\n", t.BA, t.BALT, t.Ratio())
	fmt.Fprintln(summary, "paper: BA 1,299, BA+LT 8,114 (6.23x) on its 120 Csmith programs")
}
