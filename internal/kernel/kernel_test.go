package kernel

import (
	"testing"

	"repro/internal/topo"
)

func TestStockHasNoFixes(t *testing.T) {
	c := Stock()
	for _, f := range Fixes {
		if *f.Flag(&c) {
			t.Errorf("fix %q enabled in stock config", f.Name)
		}
	}
}

func TestPKHasAllFixes(t *testing.T) {
	c := PK()
	for _, f := range Fixes {
		if !*f.Flag(&c) {
			t.Errorf("fix %q not enabled in PK config", f.Name)
		}
	}
}

func TestSixteenFixes(t *testing.T) {
	if len(Fixes) != 16 {
		t.Errorf("fix registry has %d entries; the paper lists 16", len(Fixes))
	}
}

func TestEachFixTogglesDistinctFlag(t *testing.T) {
	// Every registry row must point at its own switch: no two rows may
	// share a flag, and setting any one alone must change Stock.
	var c Config
	owner := map[*bool]string{}
	for _, f := range Fixes {
		p := f.Flag(&c)
		if prev, ok := owner[p]; ok {
			t.Errorf("fixes %q and %q share a flag", prev, f.Name)
		}
		owner[p] = f.Name
	}
	for _, f := range Fixes {
		c := Stock()
		*f.Flag(&c) = true
		if c == Stock() {
			t.Errorf("fix %q did not change the config", f.Name)
		}
	}
}

func TestBootKernel(t *testing.T) {
	k := New(topo.New(48), PK(), 1)
	if k.FS == nil || k.Procs == nil || k.Engine == nil {
		t.Fatal("kernel boot left nil subsystems")
	}
	if !k.FS.Config().AtomicLseek {
		t.Error("PK kernel's FS did not receive AtomicLseek")
	}
	stack := k.NewStack(nil)
	if stack == nil {
		t.Fatal("NewStack returned nil")
	}
	as := k.NewAddressSpace(0)
	if as == nil {
		t.Fatal("NewAddressSpace returned nil")
	}
}
