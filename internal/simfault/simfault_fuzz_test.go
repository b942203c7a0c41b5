package simfault

import (
	"testing"
	"time"

	"freeride/internal/simtime"
)

// fired is one hook call as the fuzz target records it.
type fired struct {
	at            time.Duration
	kind          Kind
	worker        int
	window, extra time.Duration
}

// FuzzFaultScheduleFires feeds hand-built two-event fault schedules to the
// injector. Every schedule Validate accepts, with every hook bound on every
// worker, must fire each event exactly once, at its instant and in At order
// (ties in schedule order), with its own window and extra latency, and skip
// none.
func FuzzFaultScheduleFires(f *testing.F) {
	sec, ms := int64(time.Second), int64(time.Millisecond)
	f.Add(sec, int(KindCrashWorker), 0, int64(0), int64(0), 2*sec, int(KindDelayRPC), 3, sec, 2*ms)
	f.Add(sec, int(KindWedgeTask), 1, sec, int64(0), sec, int(KindDropRPC), 1, sec, int64(0))
	f.Add(int64(0), int(KindFailKernel), 2, int64(-1), int64(-1), int64(0), int(KindSeverLink), 0, int64(0), int64(0))
	f.Add(-sec, int(KindCrashWorker), 0, int64(0), int64(0), sec, 0, 4, int64(0), int64(0))
	f.Add(sec, int(KindDelayRPC), 0, sec, -ms, sec, int(KindDropRPC), -1, -sec, int64(0))
	f.Fuzz(func(t *testing.T, at1 int64, kind1, worker1 int, win1, extra1 int64,
		at2 int64, kind2, worker2 int, win2, extra2 int64) {
		const workers = 4
		s := &Schedule{Events: []Event{
			{At: time.Duration(at1), Kind: Kind(kind1), Worker: worker1, Window: time.Duration(win1), Extra: time.Duration(extra1)},
			{At: time.Duration(at2), Kind: Kind(kind2), Worker: worker2, Window: time.Duration(win2), Extra: time.Duration(extra2)},
		}}
		if s.Validate(workers) != nil {
			return
		}
		eng := simtime.NewVirtual()
		in := NewInjector(eng, s)
		var got []fired
		for w := 0; w < workers; w++ {
			record := func(k Kind, window, extra time.Duration) {
				got = append(got, fired{eng.Now(), k, w, window, extra})
			}
			in.Bind(w, Hooks{
				CrashWorker: func() { record(KindCrashWorker, 0, 0) },
				SeverLink:   func() { record(KindSeverLink, 0, 0) },
				DropRPC:     func(window time.Duration) { record(KindDropRPC, window, 0) },
				DelayRPC:    func(window, extra time.Duration) { record(KindDelayRPC, window, extra) },
				FailKernel:  func() { record(KindFailKernel, 0, 0) },
				WedgeTask:   func(window time.Duration) { record(KindWedgeTask, window, 0) },
			})
		}
		in.Start()
		eng.MustDrain(10)

		want := append([]Event(nil), s.Events...)
		sortEvents(want)
		if len(got) != len(want) {
			t.Fatalf("%d hook calls for %d events: %+v", len(got), len(want), got)
		}
		for i, ev := range want {
			w := fired{ev.At, ev.Kind, ev.Worker, 0, 0}
			if ev.Kind.windowed() {
				w.window = ev.Window
			}
			if ev.Kind == KindDelayRPC {
				w.extra = ev.Extra
			}
			if got[i] != w {
				t.Fatalf("hook call %d = %+v, want %+v", i, got[i], w)
			}
		}
		if st := in.Stats(); st.Skipped != 0 || st.Total() != uint64(len(want)) {
			t.Fatalf("stats %+v, want %d injected and none skipped", st, len(want))
		}
	})
}

// TestValidateAcceptsGenerated: every schedule Generate draws passes Validate
// for the workers it was drawn over.
func TestValidateAcceptsGenerated(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		for workers := 1; workers <= 8; workers++ {
			if err := Generate(seed, time.Minute, 16, nil, workers).Validate(workers); err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
		}
	}
}
