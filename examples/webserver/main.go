// Webserver: why accepting connections in parallel matters.
//
// This example drives the simulated Apache workload (§5.4 of the paper) in
// three configurations at increasing core counts:
//
//  1. stock kernel, one Apache instance per core (the paper's stock setup),
//  2. the patched kernel without the card in the loop (pure kernel effect),
//  3. the patched kernel with the IXGBE receive envelope (the paper's PK
//     line, which the card eventually caps).
package main

import (
	"fmt"

	"repro/mosbench"
)

func main() {
	fmt.Println("Apache requests/sec/core (simulated 48-core machine)")
	fmt.Printf("%-6s %14s %14s %14s\n", "cores", "stock", "PK (no NIC)", "PK (with NIC)")
	for _, cores := range []int{1, 8, 16, 24, 36, 48} {
		stock, err := mosbench.RunApache(mosbench.ApacheConfig{
			Cores: cores, PK: false, WithNIC: true,
		})
		check(err)
		pkNoNIC, err := mosbench.RunApache(mosbench.ApacheConfig{
			Cores: cores, PK: true, WithNIC: false,
		})
		check(err)
		pkNIC, err := mosbench.RunApache(mosbench.ApacheConfig{
			Cores: cores, PK: true, WithNIC: true,
		})
		check(err)
		fmt.Printf("%-6d %14.0f %14.0f %14.0f\n",
			cores, stock.PerCore, pkNoNIC.PerCore, pkNIC.PerCore)
	}
	fmt.Println("\nReading the table:")
	fmt.Println(" - stock collapses on the lock of its one node-0 packet-buffer pool")
	fmt.Println("   (accept does not contend: stock runs one instance per core);")
	fmt.Println(" - PK without the card scales: the kernel is fixed;")
	fmt.Println(" - PK with the card flattens past ~36 cores: the paper's residual")
	fmt.Println("   bottleneck is the NIC's receive FIFO, not Linux.")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
