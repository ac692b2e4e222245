package simnet

import (
	"math"
	"testing"

	"memcontention/internal/engine"
	"memcontention/internal/memsys"
	"memcontention/internal/topology"
	"memcontention/internal/units"
)

func twoMachines(t *testing.T, wire, latency float64) (*engine.Sim, *Fabric, *Machine, *Machine) {
	t.Helper()
	sim := engine.NewSim()
	fabric, err := NewFabric(sim, wire, latency)
	if err != nil {
		t.Fatal(err)
	}
	plat := topology.Henri()
	prof, err := memsys.ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	var ms [2]*Machine
	for i := range ms {
		m, err := NewMachine(sim, i, plat, prof)
		if err != nil {
			t.Fatal(err)
		}
		if err := fabric.Attach(m); err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return sim, fabric, ms[0], ms[1]
}

// deliver performs a transfer and blocks p until the data has fully
// landed in the destination memory.
func deliver(p *engine.Proc, f *Fabric, t Transfer) (Result, error) {
	var res Result
	var err error
	sig := f.sim.NewSignal()
	f.DeliverAsync(t, func(r Result, e error) {
		res, err = r, e
		sig.Fire()
	})
	sig.Wait(p)
	return res, err
}

func TestDeliverTiming(t *testing.T) {
	const latency = 2e-6
	sim, fabric, m0, m1 := twoMachines(t, 12.1, latency)
	var res Result
	sim.Spawn("recv", func(p *engine.Proc) {
		var err error
		res, err = deliver(p, fabric, Transfer{
			Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB,
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Receive path: min(wire 12.1, nominal 10.9) = 10.9 GB/s; the send
	// path is the same nominal so both drain together.
	want := latency + float64(64*units.MiB)/(10.9*units.BytesPerGB)
	if math.Abs(res.End-want) > 1e-9 {
		t.Errorf("transfer ended at %v, want %v", res.End, want)
	}
	if res.AvgRate <= 0 {
		t.Error("missing average rate")
	}
}

func TestWireRateBounds(t *testing.T) {
	sim, fabric, m0, m1 := twoMachines(t, 5.0, 0) // slow wire
	var res Result
	sim.Spawn("recv", func(p *engine.Proc) {
		res, _ = deliver(p, fabric, Transfer{
			Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB,
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if res.AvgRate.GBps() > 5.0+1e-9 {
		t.Errorf("transfer at %v GB/s exceeds the 5 GB/s wire", res.AvgRate.GBps())
	}
}

func TestDeliverErrors(t *testing.T) {
	sim, fabric, m0, m1 := twoMachines(t, 12.1, 0)
	plat := topology.Henri()
	prof, _ := memsys.ProfileFor("henri")
	detached, err := NewMachine(sim, 7, plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   Transfer
	}{
		{"nil machine", Transfer{Src: nil, Dst: m1, Size: units.MiB}},
		{"loopback", Transfer{Src: m0, Dst: m0, Size: units.MiB}},
		{"zero size", Transfer{Src: m0, Dst: m1, Size: 0}},
		{"bad src node", Transfer{Src: m0, Dst: m1, SrcNode: 9, Size: units.MiB}},
		{"bad dst node", Transfer{Src: m0, Dst: m1, DstNode: 9, Size: units.MiB}},
		{"unattached machine", Transfer{Src: detached, Dst: m1, Size: units.MiB}},
	}
	for _, c := range cases {
		c := c
		sim.Spawn("t", func(p *engine.Proc) {
			if _, err := deliver(p, fabric, c.tr); err == nil {
				t.Errorf("%s: expected error", c.name)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFabricValidation(t *testing.T) {
	sim := engine.NewSim()
	if _, err := NewFabric(sim, 0, 0); err == nil {
		t.Error("zero wire rate must be rejected")
	}
	if _, err := NewFabric(sim, 10, -1); err == nil {
		t.Error("negative latency must be rejected")
	}
	fabric, err := NewFabric(sim, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	plat := topology.Henri()
	prof, _ := memsys.ProfileFor("henri")
	m, err := NewMachine(sim, 0, plat, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach(m); err != nil {
		t.Fatal(err)
	}
	if err := fabric.Attach(m); err == nil {
		t.Error("duplicate attach must fail")
	}
}

func TestConcurrentTransfersContendOnPCIe(t *testing.T) {
	// Two simultaneous receives into the same machine share its PCIe /
	// controller path, so each is slower than alone.
	sim, fabric, m0, m1 := twoMachines(t, 100, 0) // wire not the bottleneck
	var alone, shared Result
	sim.Spawn("phase", func(p *engine.Proc) {
		alone, _ = deliver(p, fabric, Transfer{Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB})
		done := sim.NewSignal()
		remaining := 2
		for i := 0; i < 2; i++ {
			fabric.DeliverAsync(Transfer{Src: m0, Dst: m1, SrcNode: 0, DstNode: 0, Size: 64 * units.MiB},
				func(r Result, err error) {
					if err != nil {
						t.Error(err)
					}
					shared = r
					remaining--
					if remaining == 0 {
						done.Fire()
					}
				})
		}
		done.Wait(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if shared.AvgRate.GBps() >= alone.AvgRate.GBps() {
		t.Errorf("shared transfer (%v) must be slower than alone (%v)", shared.AvgRate, alone.AvgRate)
	}
}

func TestWireRateFor(t *testing.T) {
	if WireRateFor(topology.OmniPath, 3) != 11.9 {
		t.Error("Omni-Path wire rate wrong")
	}
	if WireRateFor(topology.InfiniBand, 3) != 12.1 {
		t.Error("EDR wire rate wrong")
	}
	if WireRateFor(topology.InfiniBand, 4) != 23.5 {
		t.Error("HDR wire rate wrong")
	}
	if WireRateFor(topology.NetworkTech("other"), 3) <= 0 {
		t.Error("unknown tech must still return a positive rate")
	}
}
