package iosim

import (
	"math/rand/v2"
	"testing"

	"iolayers/internal/iosim/faults"
	"iolayers/internal/units"
)

func TestRWString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("RW strings: %q %q", Read.String(), Write.String())
	}
}

func TestLayerKindString(t *testing.T) {
	if ParallelFS.String() != "PFS" || InSystem.String() != "in-system" {
		t.Errorf("kind strings: %q %q", ParallelFS.String(), InSystem.String())
	}
}

func TestVariabilityZeroValueIsIdeal(t *testing.T) {
	var v Variability
	r := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 100; i++ {
		if got := v.Available(r); got != 1 {
			t.Fatalf("ideal availability = %v, want 1", got)
		}
	}
}

func TestVariabilityBounded(t *testing.T) {
	v := Variability{UtilizationMean: 0.9, UtilizationSpread: 0.5, Sigma: 2.0}
	r := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 5000; i++ {
		a := v.Available(r)
		if a < 0.01 || a > 1.5 {
			t.Fatalf("availability %v outside [0.01, 1.5]", a)
		}
	}
}

func TestVariabilityMeanUtilizationReducesBandwidth(t *testing.T) {
	busy := Variability{UtilizationMean: 0.8}
	idle := Variability{UtilizationMean: 0.0}
	r := rand.New(rand.NewPCG(3, 3))
	if b, i := busy.Available(r), idle.Available(r); b >= i {
		t.Errorf("busy availability %v not below idle %v", b, i)
	}
}

func TestTransferTimePhysics(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	var v Variability // deterministic
	// 1 GiB at 1 GB/s with 1 ms latency ≈ 1.0747 s.
	got := TransferTimeFaulty(units.GiB, 1e-3, 1e9, 2e9, v, faults.ZeroEffect(), r)
	want := 1e-3 + float64(units.GiB)/1e9
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("TransferTimeFaulty = %v, want %v", got, want)
	}
	// Server-bound case uses the smaller bandwidth.
	got = TransferTimeFaulty(units.GiB, 0, 10e9, 1e9, v, faults.ZeroEffect(), r)
	want = float64(units.GiB) / 1e9
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("server-bound TransferTimeFaulty = %v, want %v", got, want)
	}
}

func TestTransferTimeMonotoneInSize(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	var v Variability
	prev := -1.0
	for _, size := range []units.ByteSize{0, units.KiB, units.MiB, units.GiB} {
		got := TransferTimeFaulty(size, 1e-4, 1e9, 1e9, v, faults.ZeroEffect(), r)
		if got <= prev {
			t.Errorf("TransferTimeFaulty(%v) = %v not increasing (prev %v)", size, got, prev)
		}
		prev = got
	}
}

func TestTransferTimePanics(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative size", func() { TransferTimeFaulty(-1, 0, 1, 1, Variability{}, faults.ZeroEffect(), r) })
	mustPanic("zero bandwidth", func() { TransferTimeFaulty(1, 0, 0, 1, Variability{}, faults.ZeroEffect(), r) })
}
