package harness

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// eximLinesPerMessage bounds how many directory lines one more Exim
// message adds to the memory model. A message creates and unlinks two
// spool files and forks three processes. An unlinked file's dentry returns
// its lines once its RCU grace period has ended, and an exited process
// its page-table lines, so later messages reuse both. What is left on PK
// are first touches of long-lived dentries' sloppy pools: a spool
// directory's or mailbox's pool line the first time a core walks to it
// (every other long-lived dentry has each core's pool within the first
// messages). That share falls with run length. A path that leaks lines on
// every operation (a dentry never reclaimed, a process's 24 page-table
// lines never freed) costs six to hundreds of lines per message and fails
// the bound.
const eximLinesPerMessage = 2

// TestEximDirectoryLinesPerMessage runs Exim, Stock and PK, on the default
// 48-core machine and on big192, at half the quick message budget and at
// the quick budget, and bounds the directory's growth between the two runs
// per extra message. Comparing two runs leaves out the setup and the pool
// lines the first messages allocate for long-lived files.
func TestEximDirectoryLinesPerMessage(t *testing.T) {
	big, ok := topo.Lookup("big192")
	if !ok {
		t.Fatal("machine profile big192 not registered")
	}
	perCore := scale(apps.DefaultEximOpts().MessagesPerCore, true)
	for _, m := range []*topo.Machine{topo.Default(), big} {
		for _, v := range []struct {
			name string
			cfg  kernel.Config
		}{{"Stock", kernel.Stock()}, {"PK", kernel.PK()}} {
			run := func(perCore int) (lines int, msgs int64) {
				k := kernel.NewOnEngine(sim.NewEngine(m, 1), v.cfg, nil, nil)
				opts := apps.DefaultEximOpts()
				opts.MessagesPerCore = perCore
				r := apps.RunExim(k, opts)
				return k.MD.NumLines(), r.Ops
			}
			lines, msgs := run(perCore / 2)
			lines2, msgs2 := run(perCore)
			perMsg := float64(lines2-lines) / float64(msgs2-msgs)
			t.Logf("%s %s: %d then %d messages, %d then %d lines, %.1f per message",
				m.Name, v.name, msgs, msgs2, lines, lines2, perMsg)
			if perMsg > eximLinesPerMessage {
				t.Errorf("%s %s Exim adds %.1f directory lines per message, want at most %d",
					m.Name, v.name, perMsg, eximLinesPerMessage)
			}
		}
	}
}

// eximAllocsPerMessage bounds the heap objects one more Exim message
// allocates. A message's spool directory, its two file names and the
// delivery path share one string; its dentries and processes are reused
// once reclaimed, and its open files are values. What is left is that
// string, and growth of a map, slice or memory-model page now and then.
// Three strings per message, or a dentry or process that is never reused,
// fails the bound.
const eximAllocsPerMessage = 1.5

// TestEximAllocationsPerMessage runs Exim, Stock and PK, on the default
// machine at half the quick message budget and at the quick budget, and
// bounds the heap objects allocated per extra message, as
// TestEximDirectoryLinesPerMessage bounds directory lines.
func TestEximAllocationsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	perCore := scale(apps.DefaultEximOpts().MessagesPerCore, true)
	for _, v := range []struct {
		name string
		cfg  kernel.Config
	}{{"Stock", kernel.Stock()}, {"PK", kernel.PK()}} {
		run := func(perCore int) (mallocs uint64, msgs int64) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k := kernel.NewOnEngine(sim.NewEngine(topo.Default(), 1), v.cfg, nil, nil)
			opts := apps.DefaultEximOpts()
			opts.MessagesPerCore = perCore
			r := apps.RunExim(k, opts)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, r.Ops
		}
		allocs, msgs := run(perCore / 2)
		allocs2, msgs2 := run(perCore)
		perMsg := float64(allocs2-allocs) / float64(msgs2-msgs)
		t.Logf("%s: %d then %d messages, %d then %d objects, %.2f per message",
			v.name, msgs, msgs2, allocs, allocs2, perMsg)
		if perMsg > eximAllocsPerMessage {
			t.Errorf("%s Exim allocates %.2f objects per message, want at most %.1f",
				v.name, perMsg, eximAllocsPerMessage)
		}
	}
}
