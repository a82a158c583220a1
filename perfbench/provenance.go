package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// provenance records what a result was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newProvenance(workload string, seed uint64, seconds int, traced bool) provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		LLCBytes:   llcBytes(),
		Commit:     buildCommit(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
}

// buildCommit is the VCS revision the Go toolchain stamped into the
// binary, or "unknown" when it was built outside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "+dirty"
	}
	return rev
}

// String renders the provenance for the text report. The LLC is the
// largest cache CPUID describes; every workload's working set (at most
// a few hundred MB at n = 2²⁰) is compared against it in README.md.
func (p provenance) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q llc=%dMiB commit=%s workload=%s seed=%d seconds=%d trace=%t",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.CPU, p.LLCBytes>>20, p.Commit, p.Workload, p.Seed, p.Seconds, p.Trace)
}
