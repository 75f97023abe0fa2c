// lifetime-availability runs the web search node continuously for a
// simulated day under a memory-error storm, once for each protection
// preset, and compares crashes, availability, and response correctness —
// the Table 6 trade-off measured by direct simulation instead of the
// analytic model.
//
//	go run ./examples/lifetime-availability
package main

import (
	"fmt"
	"log"

	"hrmsim"
)

func main() {
	const errorsPerMonth = 150000 // amplified to match the scaled-down memory
	fmt.Printf("One simulated day at %d errors/month (soft), per protection preset:\n\n", errorsPerMonth)
	fmt.Printf("%-14s %8s %8s %14s %12s %12s\n",
		"protection", "errors", "crashes", "availability", "incorrect", "scrub fixes")
	for _, p := range hrmsim.Protections() {
		res, err := hrmsim.SimulateLifetime(hrmsim.LifetimeConfig{
			Protection:      p,
			ErrorsPerMonth:  errorsPerMonth,
			SoftFraction:    1,
			Hours:           24,
			RecoveryMinutes: 10,
			Seed:            7,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %8d %8d %13.3f%% %12d %12d\n",
			p, res.ErrorsInjected, res.Crashes, res.Availability*100,
			res.Incorrect, res.ScrubCorrected)
	}
	fmt.Println("\nHow to read this: unprotected memory both crashes and serves wrong")
	fmt.Println("answers. Par+R on the index (1.56% overhead) recovers most crashes —")
	fmt.Println("but the longer uptime lets errors in the unprotected heap accumulate,")
	fmt.Println("so wrong answers rise: availability and correctness are separate")
	fmt.Println("budgets, each needing the right technique per region. SEC-DED alone")
	fmt.Println("never answers wrong but still crash-loops as single-bit errors pile")
	fmt.Println("into uncorrectable pairs in read-mostly data; adding patrol scrubbing")
	fmt.Println("rides the storm out almost untouched. Protection must match how each")
	fmt.Println("region's data is used — the paper's core argument.")
}
