// Command repro regenerates the paper's tables and figures from their one
// definition, bench.Figures, and writes each as results_<name>.txt (plus
// results_<name>.csv for the strong-scaling figures). Progress goes to
// stderr; the files hold only the record.
//
//	repro [-full] [-out dir] [name ...]
//
//	repro                  # all seven at reduced scale: about 20 s
//	repro -full            # paper scale, the committed records byte for byte:
//	                       # about 6 min and 4.4 GB peak RSS on 2 cores
//	repro -out /tmp fig3   # one experiment
//
// Names, in the paper's order: table1 fig1 fig2 table2 fig3 fig4 fig5. With
// none, all seven run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	var (
		full   = flag.Bool("full", false, "run at paper scale (1M-unknown problems)")
		outDir = flag.String("out", ".", "directory for the results_<name> files")
	)
	flag.Parse()

	figs, err := selectFigures(flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	sc := bench.Reduced
	if *full {
		sc = bench.Paper
	}

	start := time.Now()
	write := func(name, content string) {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%v elapsed)", path, time.Since(start).Round(time.Second))
	}
	for _, f := range figs {
		out, err := f.Render(sc)
		if err != nil {
			log.Fatalf("%s: %v", f.Name, err)
		}
		write("results_"+f.Name+".txt", out.Text)
		if out.CSV != "" {
			write("results_"+f.Name+".csv", out.CSV)
		}
	}
}

// selectFigures returns the named experiments in order, or all for no name.
func selectFigures(names []string) ([]bench.Figure, error) {
	if len(names) == 0 {
		return bench.Figures, nil
	}
	var valid []string
	for _, f := range bench.Figures {
		valid = append(valid, f.Name)
	}
	figs := make([]bench.Figure, len(names))
	for k, name := range names {
		i := slices.Index(valid, name)
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(valid, " "))
		}
		figs[k] = bench.Figures[i]
	}
	return figs, nil
}
