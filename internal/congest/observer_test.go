package congest

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"congestds/internal/graph"
)

// countObs counts observer callbacks and keeps the last RoundStats; Event
// may arrive concurrently, so everything is mutex-guarded.
type countObs struct {
	mu     sync.Mutex
	starts int
	ends   int
	last   RoundStats
	kinds  map[EventKind]int
}

func newCountObs() *countObs { return &countObs{kinds: map[EventKind]int{}} }

func (o *countObs) RoundStart(round int) {
	o.mu.Lock()
	o.starts++
	o.mu.Unlock()
}

func (o *countObs) RoundEnd(s RoundStats) {
	o.mu.Lock()
	o.ends++
	o.last = s
	o.mu.Unlock()
}

func (o *countObs) Event(e Event) {
	o.mu.Lock()
	o.kinds[e.Kind]++
	o.mu.Unlock()
}

// TestObserverRoundEndMatchesMetrics pins the core observer contract on
// every engine, for healthy and failed runs alike: the number of RoundEnd
// calls equals Metrics.Rounds, and the final RoundStats carries exactly
// the run's cumulative traffic.
func TestObserverRoundEndMatchesMetrics(t *testing.T) {
	g := graph.GNPConnected(48, 0.12, 11)
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			t.Run("healthy", func(t *testing.T) {
				o := newCountObs()
				out := make([]int64, g.N())
				m, err := NewNetwork(g, Config{Engine: eng, Observer: o}).
					RunStepped(echoFactory(out, 9))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				checkObs(t, o, m)
			})
			t.Run("bandwidth-failure", func(t *testing.T) {
				o := newCountObs()
				net := NewNetwork(g, Config{BandwidthFactor: 1, Engine: eng, Observer: o})
				m, err := net.RunStepped(func(nd *Node) StepProgram { return &bigSender{} })
				if !errors.Is(err, ErrBandwidth) {
					t.Fatalf("err=%v, want ErrBandwidth", err)
				}
				checkObs(t, o, m)
			})
			t.Run("max-rounds-failure", func(t *testing.T) {
				o := newCountObs()
				net := NewNetwork(g, Config{MaxRounds: 5, Engine: eng, Observer: o})
				m, err := net.RunStepped(func(nd *Node) StepProgram { return &forever{} })
				if !errors.Is(err, ErrMaxRounds) {
					t.Fatalf("err=%v, want ErrMaxRounds", err)
				}
				checkObs(t, o, m)
			})
		})
	}
}

func checkObs(t *testing.T, o *countObs, m Metrics) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ends != m.Rounds {
		t.Errorf("RoundEnd fired %d times, Metrics.Rounds=%d", o.ends, m.Rounds)
	}
	if o.starts < o.ends {
		t.Errorf("RoundStart fired %d times for %d RoundEnds", o.starts, o.ends)
	}
	if o.ends > 0 {
		if o.last.Messages != m.Messages || o.last.Bits != m.Bits {
			t.Errorf("final RoundStats traffic %d msgs/%d bits, metrics %d/%d",
				o.last.Messages, o.last.Bits, m.Messages, m.Bits)
		}
		if o.last.MaxMsgBits != m.MaxMsgBits {
			t.Errorf("final RoundStats MaxMsgBits=%d, metrics %d", o.last.MaxMsgBits, m.MaxMsgBits)
		}
		if o.last.Hist.Total() != m.Messages {
			t.Errorf("final hist total %d, metrics messages %d", o.last.Hist.Total(), m.Messages)
		}
		if o.last.Round != m.Rounds {
			t.Errorf("final RoundStats.Round=%d, Metrics.Rounds=%d", o.last.Round, m.Rounds)
		}
	}
}

// TestObserverEngineEvents pins each engine's scheduler events: wake
// counts from the goroutine engine, sweep spans and arena levels from the
// stepped one.
func TestObserverEngineEvents(t *testing.T) {
	g := graph.GNPConnected(48, 0.12, 11)
	runWith := func(eng Engine) *countObs {
		o := newCountObs()
		out := make([]int64, g.N())
		if _, err := NewNetwork(g, Config{Engine: eng, Observer: o}).RunStepped(echoFactory(out, 5)); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		return o
	}
	if o := runWith(EngineGoroutine); o.kinds[EvWake] == 0 {
		t.Error("goroutine engine emitted no EvWake")
	}
	o := runWith(EngineStepped)
	if o.kinds[EvArena] == 0 {
		t.Error("stepped engine emitted no EvArena")
	}
	if o.kinds[EvSweepStart] == 0 || o.kinds[EvSweepStart] != o.kinds[EvSweepEnd] {
		t.Errorf("sweep events unpaired: %d starts, %d ends", o.kinds[EvSweepStart], o.kinds[EvSweepEnd])
	}
}

// TestMetricsAddUnequalStages: merging stages with very different message
// sizes must recompute AvgMsgBits as the weighted mean over all messages
// (total bits / total messages), not an average of stage averages, and
// MaxMsgBits as the max of maxes. 3 eight-bit messages + 1 eight-hundred-
// bit message average (24+800)/4 = 206 bits — a naive mean of stage
// averages would claim (8+800)/2 = 404.
func TestMetricsAddUnequalStages(t *testing.T) {
	a := Metrics{Rounds: 3, Messages: 3, Bits: 24, MaxMsgBits: 8, AvgMsgBits: 8}
	b := Metrics{Rounds: 1, Messages: 1, Bits: 800, MaxMsgBits: 800, AvgMsgBits: 800}
	a.Add(b)
	if a.AvgMsgBits != 206 {
		t.Errorf("AvgMsgBits=%v, want weighted mean 206 (not the 404 a mean-of-means would give)", a.AvgMsgBits)
	}
	if a.MaxMsgBits != 800 {
		t.Errorf("MaxMsgBits=%d, want 800", a.MaxMsgBits)
	}
	if a.Messages != 4 || a.Bits != 824 || a.Rounds != 4 {
		t.Errorf("totals wrong after merge: %+v", a)
	}
	// Merging an empty stage must not disturb the running average.
	a.Add(Metrics{})
	if a.AvgMsgBits != 206 {
		t.Errorf("AvgMsgBits=%v after empty merge, want 206", a.AvgMsgBits)
	}
}

// TestLedgerWallRows: wall attribution is additive telemetry — phase sums
// still reconcile with totals, rows survive the HostState encoding a
// checkpoint resume goes through, and String renders wall columns only
// for measured rows.
func TestLedgerWallRows(t *testing.T) {
	var l Ledger
	l.RecordRun("part1", Metrics{Rounds: 4, Messages: 40, Bits: 400})
	l.Charge("sim", 9)
	l.RecordRun("part2", Metrics{Rounds: 2, Messages: 6, Bits: 60})
	l.SetPhaseWall(0, 1_500_000)
	l.SetPhaseWall(2, 300_000)
	l.SetPhaseWall(1, -5) // negative: ignored
	l.SetPhaseWall(99, 1) // out of range: ignored

	check := func(l *Ledger, stage string) {
		t.Helper()
		m := l.Metrics()
		sumRounds, sumMsgs, sumWall := 0, int64(0), int64(0)
		for _, p := range l.Phases() {
			sumRounds += p.Rounds
			sumMsgs += p.Msgs
			sumWall += p.WallNs
		}
		if sumRounds != m.Rounds || sumMsgs != m.Messages {
			t.Errorf("%s: phase sums (%d rounds, %d msgs) != totals (%d, %d)",
				stage, sumRounds, sumMsgs, m.Rounds, m.Messages)
		}
		if sumWall != 1_800_000 {
			t.Errorf("%s: wall sum %d, want 1800000", stage, sumWall)
		}
		if ph := l.Phases(); ph[1].WallNs != 0 {
			t.Errorf("%s: charged-only phase has wall %d", stage, ph[1].WallNs)
		}
	}
	check(&l, "before resume")

	s := l.String()
	if !strings.Contains(s, "wall=1.8ms") {
		t.Errorf("String missing wall total:\n%s", s)
	}
	if !strings.Contains(s, "wall=1.5ms") || !strings.Contains(s, "wall=300µs") {
		t.Errorf("String missing per-phase wall columns:\n%s", s)
	}
	if strings.Contains(s, "sim") && strings.Contains(strings.Split(s, "sim")[1][:20], "wall=") {
		t.Errorf("charged-only phase rendered a wall column:\n%s", s)
	}

	// The checkpoint/resume path: the ledger crosses a process boundary as
	// a HostState blob and must come back with identical rows.
	var resumed Ledger
	if err := resumed.RestoreState(l.AppendState(nil)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	check(&resumed, "after resume")
	if resumed.String() != s {
		t.Errorf("resume changed the rendering:\n%s\nvs\n%s", resumed.String(), s)
	}
	// A resumed pipeline keeps accounting: new phases extend the rows and
	// the reconciliation still holds.
	resumed.RecordRun("part3", Metrics{Rounds: 1, Messages: 2, Bits: 2})
	m := resumed.Metrics()
	if m.Rounds != 7 || len(resumed.Phases()) != 4 {
		t.Errorf("post-resume RecordRun lost history: %+v", m)
	}
}
