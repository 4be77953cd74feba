package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is the environment stamp every report carries.
type env struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

// stamp records the code and machine a run measured. A checkout without
// git history still identifies its code by the hash of its Go sources.
func stamp() env {
	e := env{
		Commit:     "unknown",
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc(),
		CPUModel:   "unknown",
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// sourceHash hashes go.mod and every .go file below root, in path order,
// skipping dot-directories (build output lives there).
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func nproc() int { return runtime.NumCPU() }

// cpuTicks reads the machine-wide steal and total jiffies from /proc/stat;
// steal is time the hypervisor ran something else on this machine's CPUs.
func cpuTicks() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
