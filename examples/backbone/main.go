// Routing backbone: a connected dominating set (Theorem 1.4) of a mesh
// serves as a virtual backbone — every node is adjacent to the backbone and
// the backbone is connected, so any two nodes can communicate through it.
//
//	go run ./examples/backbone [-sim goroutine]
package main

import (
	"flag"
	"fmt"
	"log"

	"congestds/internal/cds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

func main() {
	sim := flag.String("sim", "stepped", "congest execution engine: goroutine | stepped")
	flag.Parse()
	simEngine, err := congest.ParseEngine(*sim)
	if err != nil {
		log.Fatal(err)
	}

	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus 12x12", graph.Torus(12, 12)},
		{"grid 15x15", graph.Grid(15, 15)},
		{"unit disk n=250", graph.UnitDiskConnected(250, 0.12, 3)},
	} {
		res, err := cds.Solve(tt.g, cds.Params{MDS: mds.Params{Eps: 0.5, Sim: simEngine}})
		if err != nil {
			log.Fatal(err)
		}
		if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
			log.Fatalf("%s: invalid backbone: %v", tt.name, err)
		}
		fmt.Printf("%-18s n=%-4d backbone=%-4d (dominating set %d + %d connectors, %d clusters)\n",
			tt.name, tt.g.N(), len(res.CDS), len(res.DS),
			len(res.CDS)-len(res.DS), len(res.RulingSet))
		fmt.Printf("%-18s guarantee ≤ %.2f·OPT, |CDS| ≤ 3·|DS| holds: %v, rounds=%d\n",
			"", res.Bound, len(res.CDS) <= 3*len(res.DS),
			res.Ledger.Metrics().TotalRounds())
	}
}
