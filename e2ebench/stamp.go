package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies where and from what a result was measured.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostStamp() stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sameHost reports why two stamps are not comparable, or "" when they
// are. The commit is not compared: telling two commits apart on one
// host is what a comparison is for.
func sameHost(a, b stamp) string {
	var diffs []string
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel))
	}
	return strings.Join(diffs, "; ")
}

// compareMain prints NEW against BASE metric by metric. It refuses
// results measured on different hosts, workloads or trace modes.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare BASE.json NEW.json")
		return 2
	}
	var rs [2]result
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", p, err)
			return 2
		}
	}
	base, next := rs[0], rs[1]
	if why := sameHost(base.Stamp, next.Stamp); why != "" {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare results from different hosts: %s\n", why)
		return 3
	}
	if base.Workload != next.Workload || base.Trace != next.Trace || base.Seconds != next.Seconds {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare %s/trace=%v/%gs with %s/trace=%v/%gs\n",
			base.Workload, base.Trace, base.Seconds, next.Workload, next.Trace, next.Seconds)
		return 3
	}
	fmt.Printf("%s  base %s (seed %d)  new %s (seed %d)\n", base.Workload, base.Stamp.Commit, base.Seed, next.Stamp.Commit, next.Seed)
	names := make([]string, 0, len(base.Metrics))
	for n := range base.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, nm := base.Metrics[n], next.Metrics[n]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nm.Value-b.Value)/b.Value)
		}
		fmt.Printf("  %-32s %14.6g %14.6g %-8s %s\n", n, b.Value, nm.Value, b.Unit, change)
	}
	return 0
}
