// Quickstart: inject 200 single-bit soft errors into the in-memory
// key–value store and classify every outcome with the paper's taxonomy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"hrmsim"
)

func main() {
	cfg := hrmsim.CharacterizeConfig{
		App:    hrmsim.AppKVStore,
		Error:  hrmsim.SoftSingleBit,
		Trials: 200,
		Size:   hrmsim.SizeSmall,
		Seed:   42,
	}
	// Progress receives an initial record, one per finished trial and a
	// final one (Running false); printing to stderr keeps stdout clean
	// for the report below.
	cfg.Progress = func(p hrmsim.ProgressInfo) {
		if p.Running && p.Done > 0 && p.Done%50 == 0 {
			fmt.Fprintf(os.Stderr, "trial %d/%d (%.0f trials/s, ETA %.0fs)\n",
				p.Done, p.Total, p.TrialsPerSec, p.EtaSeconds)
		}
	}
	c, err := hrmsim.Characterize(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Injected %d %s errors into %s:\n\n", c.Trials, c.Error, c.App)
	fmt.Printf("  crash probability:     %5.2f%%  (90%% CI [%.2f%%, %.2f%%])\n",
		c.CrashProbability*100, c.CrashCILow*100, c.CrashCIHigh*100)
	fmt.Printf("  tolerated (masked):    %5.2f%%\n", c.ToleratedProbability*100)
	fmt.Printf("  incorrect per billion: %.3g\n\n", c.IncorrectPerBillion)
	fmt.Println("  Outcome taxonomy (Fig. 1 of the paper):")
	for _, k := range []string{"masked-by-overwrite", "masked-by-logic", "masked-latent",
		"incorrect-response", "crash"} {
		fmt.Printf("    %-20s %d\n", k, c.Outcomes[k])
	}
}
