// Dhrystone example: the paper's CPU-bound measurement, run across every
// machine and execution mode — three microcoded CISC implementations (cost
// models), the software interpreter on the Cyclone/R, and the Accelerator's
// three levels executing on the RISC simulator. Prints the Dhrystone
// columns of the paper's Table 1.
package main

import (
	"fmt"
	"log"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
)

func main() {
	fmt.Println("TAL-coded Dhrystone, 16-bit and 32-bit addressing variants")
	fmt.Println()
	rows := make([]*bench.Row, 0, 2)
	for _, name := range []string{"dhry16", "dhry32"} {
		row, err := bench.MeasureWorkload(name, 200, nil)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row)
	}
	fmt.Print(bench.Table1(rows))
	fmt.Println()
	fmt.Print(bench.Table3(rows))
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%s: accelerated (Default) runs %.1fx faster than interpreted;\n",
			r.Name, r.InterpTime/r.AccelTime[codefile.LevelDefault])
		fmt.Printf("        RISC pipeline: %d instructions, %.0f cycles (CPI %.2f)\n",
			r.RISCInstrs, r.RISCCycles, r.RISCCycles/float64(r.RISCInstrs))
	}
}
