package congest_test

import (
	"fmt"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// floodExample is the worked StepProgram from the package documentation: a
// flood from node 0 that records every node's hop distance.
type floodExample struct {
	my     int
	rounds int
	dist   []int
}

func (f *floodExample) Init(nd *congest.Node) bool {
	f.my = -1
	if nd.V() == 0 {
		f.my = 0
		nd.Broadcast([]byte{1})
	}
	return false
}

func (f *floodExample) Step(nd *congest.Node, r int, in []congest.Incoming) bool {
	if f.my < 0 && len(in) > 0 {
		f.my = r + 1
	}
	if r+1 >= f.rounds {
		f.dist[nd.V()] = f.my
		return true
	}
	if f.my == r+1 {
		nd.Broadcast([]byte{1})
	}
	return false
}

// ExampleNetwork_RunStepped runs a StepProgram natively on the stackless
// stepped engine; the same factory produces identical results and metrics
// on the goroutine engine via the blocking adapter.
func ExampleNetwork_RunStepped() {
	g := graph.Path(4)
	dist := make([]int, g.N())
	net := congest.NewNetwork(g, congest.Config{Engine: congest.EngineStepped})
	m, err := net.RunStepped(func(nd *congest.Node) congest.StepProgram {
		return &floodExample{rounds: 3, dist: dist}
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("distances:", dist)
	fmt.Println("rounds:", m.Rounds)
	// Output:
	// distances: [0 1 2 3]
	// rounds: 3
}
