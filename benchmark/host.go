package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"carousel/internal/gf256"
)

// hostStamp says where a result was measured. A number without it cannot
// be compared with anything.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GF256Tier  string `json:"gf256_tier"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Network    string `json:"network"`
}

func stampHost() hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GF256Tier:  gf256.Tier(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Network:    "loopback, RAM-backed block servers — not a link or a device",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is handed in by run.sh: the program is built outside the module
// that holds the repository, and a checkout need not be a git repository.
func gitSHA() string {
	if sha := os.Getenv("BENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}
