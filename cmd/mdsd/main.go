// mdsd is the resident graph-serving daemon: it loads graphs once (heap
// or zero-copy memory-mapped .csrg), keeps them resident behind a
// byte-budgeted LRU, and answers dominating-set queries over HTTP by
// dispatching through the algorithm-family registry (every mdsrun -algo
// name but the greedy and exact baselines). Concurrent identical requests
// coalesce into one engine run and certified results are cached, so a
// fleet of clients querying the same graph pays for one solve.
//
//	go run ./cmd/mdsd -graph web=web.csrg -graph road=road.txt
//	go run ./cmd/mdsd -dir graphs/ -addr :8080 -graph-budget 2147483648
//
//	curl 'localhost:8080/solve?graph=web&algo=thm1.2&eps=0.5&deadline=30s'
//	curl 'localhost:8080/certify?graph=web&algo=mcds'
//	curl 'localhost:8080/graphs'
//	curl 'localhost:8080/stats'
//
// Endpoints and their failure taxonomy (sentinel classes pinned to HTTP
// statuses) are documented on the serve package; the daemon itself only
// parses flags and owns the listener.
//
// Exit codes: 0 on clean shutdown, 2 on usage errors (bad flags), 1 when
// the listener fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"congestds/internal/congest"
	"congestds/internal/serve"
)

const (
	exitOK    = 0
	exitRun   = 1
	exitUsage = 2
)

// onListen, when non-nil, observes the bound listen address and the
// http.Server before Serve blocks. Test seam: lets the daemon test bind
// :0, learn the real port, and shut the server down.
var onListen func(addr string, srv *http.Server)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mdsd: "+format+"\n", args...)
	return exitUsage
}

// run is main behind a testable seam: parse flags, build the serve.Server,
// listen.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dir := fs.String("dir", "", "serve any graph file under this directory by relative path")
	graphBudget := fs.Int64("graph-budget", 0, "resident graph byte budget (0 = unlimited)")
	cacheBudget := fs.Int64("cache-budget", 64<<20, "certified-solution cache byte budget (0 = unlimited)")
	sim := fs.String("sim", "stepped", "default congest execution engine: goroutine | stepped")
	graphs := map[string]string{}
	fs.Func("graph", "preregister a graph as name=path (repeatable; .csrg is memory-mapped)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := graphs[name]; dup {
			return fmt.Errorf("duplicate graph name %q", name)
		}
		graphs[name] = path
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage(stderr, "unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if len(graphs) == 0 && *dir == "" {
		return usage(stderr, "nothing to serve: give at least one -graph name=path or a -dir")
	}
	engine, err := congest.ParseEngine(*sim)
	if err != nil {
		return usage(stderr, "%v", err)
	}
	if *graphBudget < 0 || *cacheBudget < 0 {
		return usage(stderr, "budgets must be ≥ 0")
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: serve.New(serve.Config{
			Graphs:      graphs,
			Dir:         *dir,
			GraphBudget: *graphBudget,
			CacheBudget: *cacheBudget,
			Engine:      engine,
		}),
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "mdsd: %v\n", err)
		return exitRun
	}
	fmt.Fprintf(stdout, "mdsd: serving on %s (%d graphs preregistered, engine %s)\n",
		ln.Addr(), len(graphs), engine)
	if onListen != nil {
		onListen(ln.Addr().String(), srv)
	}
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "mdsd: %v\n", err)
		return exitRun
	}
	return exitOK
}
