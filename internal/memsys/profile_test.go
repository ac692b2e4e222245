package memsys

import (
	"testing"

	"memcontention/internal/topology"
)

func TestAllBuiltinProfilesValidate(t *testing.T) {
	for _, plat := range topology.Testbed() {
		prof, err := ProfileFor(plat.Name)
		if err != nil {
			t.Fatalf("%s: %v", plat.Name, err)
		}
		if err := prof.Validate(plat); err != nil {
			t.Errorf("%s: %v", plat.Name, err)
		}
		if prof.PlatformName != plat.Name {
			t.Errorf("profile name %q for platform %q", prof.PlatformName, plat.Name)
		}
	}
}

func TestProfileForUnknown(t *testing.T) {
	if _, err := ProfileFor("nonesuch"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestProfileForReturnsCopy(t *testing.T) {
	a, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	a.CommNominal[0] = 999
	a.LinkCap = 1
	b, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	if b.CommNominal[0] == 999 || b.LinkCap == 1 {
		t.Error("ProfileFor must return an independent copy")
	}
}

func TestProfilesListsAll(t *testing.T) {
	if len(profiles) != 6 {
		t.Errorf("profile table lists %d entries, want 6", len(profiles))
	}
	for n := range profiles {
		if _, err := ProfileFor(n); err != nil {
			t.Errorf("listed profile %q not loadable: %v", n, err)
		}
	}
}

func TestDefaultProfileValid(t *testing.T) {
	plat, err := topology.NewBuilder("custom").
		CPU(topology.Intel, "Custom 12c").
		Sockets(2).NodesPerSocket(1).CoresPerSocket(12).
		MemoryPerNodeGB(32).
		NICOn("nic", topology.InfiniBand, 1, 3).
		LinkName("UPI").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	prof := DefaultProfile(plat)
	if err := prof.Validate(plat); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
	if _, err := New(plat, prof); err != nil {
		t.Fatalf("system from default profile: %v", err)
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	plat := topology.Henri()
	mutations := []struct {
		name string
		mut  func(*Profile)
	}{
		{"zero per-core", func(p *Profile) { p.PerCoreLocal = 0 }},
		{"wrong nominal length", func(p *Profile) { p.CommNominal = []float64{1} }},
		{"negative nominal", func(p *Profile) { p.CommNominal[0] = -1 }},
		{"floor out of range", func(p *Profile) { p.CommFloorFrac = 1.5 }},
		{"zero floor", func(p *Profile) { p.CommFloorFrac = 0 }},
		{"zero link", func(p *Profile) { p.LinkCap = 0 }},
		{"bad envelope", func(p *Profile) { p.Caps.MixLocal.Plateau = -1 }},
		{"bad quirk factor", func(p *Profile) { p.Quirks.CrossSocketCommFactor = 2.0 }},
	}
	for _, m := range mutations {
		prof, err := ProfileFor("henri")
		if err != nil {
			t.Fatal(err)
		}
		m.mut(prof)
		if err := prof.Validate(plat); err == nil {
			t.Errorf("%s: not rejected", m.name)
		}
	}
}

func TestNominalCommOutOfRange(t *testing.T) {
	prof, err := ProfileFor("henri")
	if err != nil {
		t.Fatal(err)
	}
	if prof.NominalComm(99) != 0 || prof.NominalComm(-1) != 0 {
		t.Error("out-of-range node must report 0 nominal bandwidth")
	}
}

// TestProfileShapeConsistency checks cross-field relationships the
// simulator's realism depends on.
func TestProfileShapeConsistency(t *testing.T) {
	for _, name := range topology.Names() {
		prof, err := ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		caps := prof.Caps
		if caps.MixLocal.Plateau <= caps.CoreLocal.Plateau {
			t.Errorf("%s: mixed capacity must exceed core-only capacity (DMA adds extractable bandwidth)", name)
		}
		if caps.MixRemote.Plateau <= caps.CoreRemote.Plateau {
			t.Errorf("%s: remote mixed capacity must exceed remote core capacity", name)
		}
		if caps.CoreRemote.Plateau >= caps.CoreLocal.Plateau {
			t.Errorf("%s: remote accesses must extract less than local ones", name)
		}
		if prof.PerCoreRemote >= prof.PerCoreLocal {
			t.Errorf("%s: remote per-core stream must be slower than local", name)
		}
		for _, b := range prof.CommNominal {
			if b > prof.PCIeCap {
				t.Errorf("%s: NIC nominal %v exceeds PCIe capacity %v", name, b, prof.PCIeCap)
			}
		}
	}
}
