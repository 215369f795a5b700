// Package congest is nondet testdata: deterministic engine code must not
// read ambient entropy.
package congest

import (
	"math/rand"
	"os"
	"time"
)

func wallClock() int64 {
	t := time.Now() // want "wall-clock read time.Now"
	return t.Unix()
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want "wall-clock read time.Since"
}

func globalRand() int {
	return rand.Intn(10) // want "global math/rand source math/rand.Intn"
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // ok: explicit seeded source
	return r.Intn(10)
}

func pid() int {
	return os.Getpid() // want "process identity os.Getpid"
}

func raceSelect(a, b chan int) int {
	select { // want "select with 2 communication cases"
	case x := <-a:
		return x
	case x := <-b:
		return x
	}
}

func pollSelect(a chan int) int {
	select { // ok: one case plus default is a deterministic poll
	case x := <-a:
		return x
	default:
		return 0
	}
}

func wallClockByDesign() time.Time {
	//detlint:allow nondet a reviewed wall-clock read, see docs/ARCHITECTURE.md#static-guarantees
	return time.Now()
}

func constructionOnly(d time.Duration) *time.Timer {
	return time.NewTimer(d) // ok: not a banned entropy read
}
