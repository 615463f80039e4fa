package main

import (
	"os"
	"runtime"
	"strings"
)

// envInfo is where a run was taken; timings from different boxes do not
// compare, and the record says which box it was.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg"`
}

func readEnv() envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			e.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return e
}

// m3rEnv returns the names of the M3R_* variables in environ. The engines
// take defaults for the pool, the cache budget, the spill codec and queue,
// readmission and task attempts from them; a run with one set measures a
// different system.
func m3rEnv(environ []string) []string {
	var out []string
	for _, kv := range environ {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "M3R_") {
			out = append(out, name)
		}
	}
	return out
}
