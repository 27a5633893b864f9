// Command retro-bench regenerates the paper's tables and figures on the
// synthetic worlds.
//
//	retro-bench [-scale tiny|small|full] [-seed N] all
//	retro-bench table1 table2 fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12a fig12b fig13 fig14
//
// Output is one aligned text table per experiment, with the expected
// shape (from the paper) noted beneath. Serving and training performance
// is measured by the end-to-end benchmark in bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/retrodb/retro/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "small", "tiny, small or full")
	seed := flag.Int64("seed", 1, "world and sampling seed")
	flag.Parse()

	scale, ok := experiments.ByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "retro-bench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Seed = *seed

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "retro-bench: name experiments to run, or 'all'")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.Order
	}
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		rep, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "retro-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
		fmt.Printf("  [%s finished in %v at scale %q]\n\n", id, time.Since(t0).Round(time.Millisecond), scale.Name)
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}
