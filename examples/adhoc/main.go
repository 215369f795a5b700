// Ad-hoc network clustering: the paper's motivating application. Sensor
// nodes scattered in the unit square form a unit-disk graph; a dominating
// set gives cluster heads so every sensor has a head in radio range. The
// example compares the deterministic algorithms of Theorems 1.1 and 1.2
// against the greedy baseline, and shows the message-passing protocols
// (leader election, BFS tree, aggregation) running on the same network.
//
//	go run ./examples/adhoc [-sim goroutine]
package main

import (
	"flag"
	"fmt"
	"log"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/protocols"
	"congestds/internal/verify"
)

func main() {
	sim := flag.String("sim", "stepped", "congest execution engine: goroutine | stepped")
	flag.Parse()
	simEngine, err := congest.ParseEngine(*sim)
	if err != nil {
		log.Fatal(err)
	}
	cfg := congest.Config{Engine: simEngine}

	// 300 sensors, radio radius chosen to keep the network connected.
	g := graph.UnitDiskConnected(300, 0.11, 7)
	fmt.Printf("sensor network: %v\n", g)

	// First, the sensors discover their network with real message passing.
	net := congest.NewNetwork(g, cfg)
	var ledger congest.Ledger
	leader, err := protocols.ElectLeader(net, &ledger)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := protocols.BFSTree(congest.NewNetwork(g, cfg), &ledger, leader, g.N())
	if err != nil {
		log.Fatal(err)
	}
	links, err := protocols.ConvergecastSum(congest.NewNetwork(g, cfg), &ledger, tree,
		func(v int) int64 { return int64(g.Degree(v)) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leader elected: node %d (ID %d); network has %d radio links\n",
		leader, g.ID(leader), links/2)

	// Cluster-head election: deterministic MDS, both engines.
	for _, engine := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring} {
		res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: engine, Sim: simEngine})
		if err != nil {
			log.Fatal(err)
		}
		if !verify.IsDominatingSet(g, res.Set) {
			log.Fatal("invalid cluster-head set")
		}
		cert := verify.Certify(g, res.Set)
		fmt.Printf("%-24s heads=%-4d certified-ratio≤%.3f guarantee=%.3f rounds=%d\n",
			engine, len(res.Set), cert.Ratio, res.Bound,
			res.Ledger.Metrics().TotalRounds())
	}
	greedy := baseline.Greedy(g)
	fmt.Printf("%-24s heads=%d (centralized reference)\n", "greedy", len(greedy))

	// Every sensor can reach a cluster head in one hop — by definition of a
	// dominating set. Report average cluster size for the coloring engine.
	res, _ := mds.Solve(g, mds.Params{Eps: 0.5, Sim: simEngine})
	fmt.Printf("average cluster size: %.1f sensors per head\n",
		float64(g.N())/float64(len(res.Set)))
}
