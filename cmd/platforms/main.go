// Command platforms lists and describes the built-in testbed platforms
// (Table I of the paper) and their simulated hardware profiles.
//
// Usage:
//
//	platforms                 # table of all platforms
//	platforms -name henri     # detailed description of one platform
//	platforms -profiles       # include hardware-profile summaries
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"memcontention"
	"memcontention/internal/atomicio"
	"memcontention/internal/checkpoint"
	"memcontention/internal/eval"
	"memcontention/internal/hwloc"
	"memcontention/internal/memsys"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

func main() {
	name := flag.String("name", "", "describe a single platform")
	profiles := flag.Bool("profiles", false, "show simulated hardware profiles")
	topo := flag.Bool("topo", false, "draw the lstopo-style ASCII topology")
	exportDir := flag.String("export", "", "write <name>.platform.json and <name>.profile.json files into this directory")
	var cli obs.CLI
	cli.Register(flag.CommandLine, false)
	flag.Parse()

	ctx, stop := checkpoint.SignalContext()
	err := runCLI(ctx, *name, *profiles, *topo, *exportDir, &cli)
	stop()
	if code := checkpoint.Report(os.Stderr, "platforms", err); code != 0 {
		os.Exit(code)
	}
}

func runCLI(ctx context.Context, name string, profiles, topo bool, exportDir string, cli *obs.CLI) error {
	if err := cli.Start(); err != nil {
		return err
	}
	var err error
	if exportDir != "" {
		err = exportAll(ctx, exportDir)
	} else {
		err = run(name, profiles, topo)
	}
	if err != nil {
		return err
	}
	man := obs.NewManifest("platforms")
	man.Platform = name
	man.Args = os.Args[1:]
	return cli.Finish(cli.NewRegistry(), nil, man)
}

// exportAll dumps every built-in platform and profile as JSON files that
// membench/memmodel can load back with -platformfile/-profilefile.
func exportAll(ctx context.Context, dir string) error {
	if err := atomicio.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range topology.Testbed() {
		// The exported files are written atomically, so interrupting
		// between platforms never leaves a torn pair behind.
		if err := ctx.Err(); err != nil {
			return err
		}
		prof, err := memsys.ProfileFor(p.Name)
		if err != nil {
			return err
		}
		if err := memcontention.SavePlatformFile(filepath.Join(dir, p.Name+".platform.json"), p); err != nil {
			return err
		}
		if err := memcontention.SaveProfileFile(filepath.Join(dir, p.Name+".profile.json"), prof, p); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d platform/profile pairs to %s\n", len(topology.Testbed()), dir)
	return nil
}

func run(name string, profiles, topo bool) error {
	if name != "" {
		p, err := topology.ByName(name)
		if err != nil {
			return err
		}
		fmt.Print(p.Describe())
		if topo {
			t, err := hwloc.FromPlatform(p)
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(t.Render())
		}
		if profiles {
			return printProfile(p.Name)
		}
		return nil
	}
	if err := eval.Table1(topology.Testbed()).WriteText(os.Stdout); err != nil {
		return err
	}
	if profiles {
		for _, p := range topology.Testbed() {
			fmt.Println()
			if err := printProfile(p.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

func printProfile(name string) error {
	prof, err := memsys.ProfileFor(name)
	if err != nil {
		return err
	}
	fmt.Printf("Hardware profile %s:\n", name)
	fmt.Printf("  per-core stream: %.1f GB/s local, %.1f GB/s remote\n", prof.PerCoreLocal, prof.PerCoreRemote)
	fmt.Printf("  NIC nominal:     %v GB/s by node, floor %.0f %%, decay %.1f GB/s per core\n",
		prof.CommNominal, 100*prof.CommFloorFrac, prof.CommDecayPerCore)
	fmt.Printf("  controller:      core-alone %.0f GB/s, mixed %.0f GB/s (local plateaus)\n",
		prof.Caps.CoreLocal.Plateau, prof.Caps.MixLocal.Plateau)
	fmt.Printf("  link / PCIe:     %.0f / %.1f GB/s\n", prof.LinkCap, prof.PCIeCap)
	return nil
}
