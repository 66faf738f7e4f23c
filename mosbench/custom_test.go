package mosbench

import (
	"reflect"
	"testing"
)

func TestRunEximCustom(t *testing.T) {
	r, err := RunExim(EximConfig{Cores: 8, PK: true, SpoolDirs: 4, MessagesPerCore: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "Exim" || r.Cores != 8 {
		t.Errorf("result metadata: %+v", r)
	}
	if r.PerCore <= 0 || r.Throughput <= 0 {
		t.Errorf("non-positive throughput: %+v", r)
	}
	if r.KernelFraction <= 0 || r.KernelFraction >= 1 {
		t.Errorf("kernel fraction out of range: %v", r.KernelFraction)
	}
}

func TestRunEximValidatesCores(t *testing.T) {
	if _, err := RunExim(EximConfig{Cores: 0}); err == nil {
		t.Error("Cores=0 did not error")
	}
	if _, err := RunExim(EximConfig{Cores: 49}); err == nil {
		t.Error("Cores=49 did not error")
	}
}

func TestRunApacheVariants(t *testing.T) {
	stock, err := RunApache(ApacheConfig{Cores: 16, WithNIC: false, RequestsPerCore: 30})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := RunApache(ApacheConfig{Cores: 16, PK: true, WithNIC: false, RequestsPerCore: 30})
	if err != nil {
		t.Fatal(err)
	}
	if pk.PerCore <= stock.PerCore {
		t.Errorf("PK Apache (%v) should beat stock (%v) at 16 cores without the NIC",
			pk.PerCore, stock.PerCore)
	}
}

func TestRunMetisSuperPagesWin(t *testing.T) {
	small, err := RunMetis(MetisConfig{Cores: 24, InputBytes: 24 << 20})
	if err != nil {
		t.Fatal(err)
	}
	super, err := RunMetis(MetisConfig{Cores: 24, PK: true, SuperPages: true, InputBytes: 24 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if super.PerCore <= small.PerCore {
		t.Errorf("2MB Metis (%v) should beat 4KB (%v) at 24 cores", super.PerCore, small.PerCore)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	a, err := RunExim(EximConfig{Cores: 4, MessagesPerCore: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExim(EximConfig{Cores: 4, MessagesPerCore: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}
